"""Hyperion's memory subsystem: the Table 2 primitives.

The paper's Table 2 lists the key primitives through which compiled Java code
interacts with the distributed heap:

==================  ========================================================
``loadIntoCache``   Load an object into the (node-level) cache
``invalidateCache`` Invalidate all entries in the cache
``updateMainMemory`` Update memory with modifications made to cached objects
``get``             Retrieve a field from an object previously loaded
``put``             Modify a field in an object previously loaded
==================  ========================================================

This class implements them, together with the bulk array variants the
java2c translator emits for array-heavy loops (each bulk call still accounts
one detection event per element — it is purely an implementation-efficiency
device of the simulator, not a semantic change).  Detection of remote objects
(the paper's subject) is delegated to the configured
:class:`~repro.core.protocol.ConsistencyProtocol`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.costs import CostModel
from repro.core.cache import CachedObject, ObjectCache
from repro.core.context import AccessContext
from repro.core.interfaces import SharedEntity
from repro.core.protocol import ConsistencyProtocol
from repro.core.stats import RunStats
from repro.dsm.page_manager import PageManager


class MemorySubsystem:
    """Single shared-address-space image over the cluster nodes."""

    def __init__(
        self,
        page_manager: PageManager,
        cost_model: CostModel,
        protocol: ConsistencyProtocol,
        num_nodes: int,
        run_stats: RunStats | None = None,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.page_manager = page_manager
        self.cost_model = cost_model
        self.protocol = protocol
        self.num_nodes = int(num_nodes)
        self.caches: list[ObjectCache] = [ObjectCache(n) for n in range(num_nodes)]
        self.run_stats = run_stats if run_stats is not None else RunStats()
        # keep the DSM counters and the run-level view unified
        self.run_stats.dsm = page_manager.stats
        # -- hot-path handles: every get/put goes through these, so resolve
        # them once instead of chasing attribute chains per access
        self._page_size = page_manager.page_size
        self._freq = cost_model.machine.frequency_hz
        self._base_cycles = cost_model.software.access_base_cycles
        self._detect = protocol.detect_access
        # -- fused access fast path (the batched-replay substrate).  When
        # the protocol can prove that charging a resident access inline is
        # byte-identical to ``detect_access`` (stateless detection, fixed
        # homes, stock implementations — see ``access_fast_plan``), the
        # scalar/range primitives below charge resident accesses inline and
        # the run primitives batch whole same-page runs through the
        # strategy's ``detect_access_run``.
        # Every miss, every unusual page and every disabled configuration
        # falls back to the exact ``_detect`` path, byte for byte.
        self._fast_plan = protocol.access_fast_plan()
        strategy = protocol.detection_strategy()
        self._detect_run = (
            strategy.detect_access_run
            if strategy is not None and self._fast_plan is not None
            else None
        )
        self._home_by_page = page_manager._home_by_page
        self._tables = page_manager.tables
        self._dsm_stats = page_manager.stats
        # identical expressions to the per-call ones ((cycles * 1) is exact)
        self._check_cycles = protocol._check_cycles
        self._base_seconds = self._base_cycles / self._freq
        self._check_seconds = protocol._check_cycles / self._freq

    def disable_access_fast_path(self) -> None:
        """Route every access through the exact polymorphic path.

        Installed analysis layers (the consistency sanitizer) wrap the
        per-instance entry points; the fused fast path would bypass those
        wrappers, so such layers turn it off for the whole run.
        """
        self._fast_plan = None
        self._detect_run = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _pages_of(self, obj: SharedEntity, lo: int = 0, hi: int | None = None) -> list[int]:
        """Pages backing slots [lo, hi) of *obj* (all of it by default)."""
        if hi is None:
            address = obj.address
            size = obj.size_bytes
        else:
            address = obj.address + lo * obj.slot_size
            size = max(1, (hi - lo) * obj.slot_size)
        return self.page_manager.pages_for_range(address, size)

    def _cache_entry(self, node: int, obj: SharedEntity) -> CachedObject:
        cache = self.caches[node]
        entry = cache.lookup(obj)
        if entry is None:
            entry = cache.insert(obj)
        return entry

    def is_local(self, node: int, obj: SharedEntity) -> bool:
        """True when *obj* is homed on *node* (accesses go to main memory)."""
        return obj.home_node == node

    # ------------------------------------------------------------------
    # Table 2 primitives
    # ------------------------------------------------------------------
    def load_into_cache(self, ctx: AccessContext, node: int, obj: SharedEntity) -> CachedObject:
        """``loadIntoCache``: ensure *obj* is usable from *node*.

        For remote objects this makes the backing pages resident (through the
        protocol, which charges its detection/fetch costs) and materialises a
        node-local copy shared by all threads of the node.  Loading a local
        object is a no-op returning a pass-through view.
        """
        pages = self._pages_of(obj)
        self.protocol.detect_access(ctx, node, pages, count=1, write=False)
        if self.is_local(node, obj):
            return CachedObject(obj)
        return self._cache_entry(node, obj)

    def invalidate_cache(self, ctx: AccessContext, node: int) -> int:
        """``invalidateCache``: drop every cached entry on *node*.

        Called by the runtime when a thread of *node* enters a monitor.  The
        protocol applies its own page-table action (clearing presence bits
        for ``java_ic``, re-protecting pages for ``java_pf``) and the object
        cache is emptied so subsequent accesses reload fresh copies.
        Modifications must have been flushed first (``updateMainMemory``).
        """
        self.protocol.on_monitor_enter(ctx, node)
        return self.caches[node].invalidate()

    def update_main_memory(self, ctx: AccessContext, node: int) -> int:
        """``updateMainMemory``: flush modifications to the home nodes.

        Called by the runtime when a thread of *node* exits a monitor.  One
        update message is sent per distinct home node, carrying that node's
        modified bytes; the caller is charged the messaging cost.  Returns
        the number of bytes flushed.
        """
        total, per_home = self.caches[node].flush_all()
        for home, nbytes in per_home.items():
            if home == node:
                continue
            self.run_stats.dsm.update_messages += 1
            self.run_stats.dsm.update_bytes += nbytes
            ctx.charge_wait(self.cost_model.update_message_seconds(nbytes))
        self.protocol.on_monitor_exit(ctx, node)
        return total

    # -- scalar accesses ------------------------------------------------------
    def get(self, ctx: AccessContext, node: int, obj: SharedEntity, index: int):
        """``get``: read one field/element of *obj* from *node*."""
        slot_size = obj.slot_size
        address = obj.address + index * slot_size
        page_size = self._page_size
        first = address // page_size
        last = (address + slot_size - 1) // page_size
        plan = self._fast_plan
        if plan is not None and first == last:
            # resident single-page access: the charges of the detect path
            # below, in the same order.  This block and put's stay
            # open-coded rather than calling _fused_range_charges: they run
            # ~1.08M times per benchmark ``scenarios`` pass, and routing them
            # through the helper measured 16.47 -> 16.07 cells/s there (won
            # 1 of 10 A/B pairs)
            rhome = self._home_by_page.get(first)
            if rhome is not None and (
                rhome == node or first in self._tables[node]._present
            ):
                try:
                    ctx._pending_cpu += self._base_seconds
                except AttributeError:
                    ctx.charge_cpu(self._base_seconds)
                stats = self._dsm_stats
                stats.accesses += 1
                if rhome != node:
                    stats.remote_accesses += 1
                if plan != "page_fault":
                    stats.inline_checks += 1
                    try:
                        ctx._pending_cpu += self._check_seconds
                    except AttributeError:
                        ctx.charge_cpu(self._check_seconds)
                if obj.home_node == node:
                    return obj.main_read(index)
                return self._cache_entry(node, obj).read(index)
        pages = (first,) if first == last else (first, last)
        ctx.charge_cpu(self._base_cycles / self._freq)
        self._detect(ctx, node, pages, 1, False)
        if obj.home_node == node:
            return obj.main_read(index)
        return self._cache_entry(node, obj).read(index)

    def put(self, ctx: AccessContext, node: int, obj: SharedEntity, index: int, value) -> None:
        """``put``: modify one field/element of *obj* from *node*.

        Local objects are updated in place (the node owns the reference
        copy); remote objects are updated in the node cache and the
        modification is recorded at field granularity for the next
        ``updateMainMemory``.
        """
        slot_size = obj.slot_size
        address = obj.address + index * slot_size
        page_size = self._page_size
        first = address // page_size
        last = (address + slot_size - 1) // page_size
        plan = self._fast_plan
        if plan is not None and first == last:
            # resident single-page access (see get)
            rhome = self._home_by_page.get(first)
            if rhome is not None and (
                rhome == node or first in self._tables[node]._present
            ):
                try:
                    ctx._pending_cpu += self._base_seconds
                except AttributeError:
                    ctx.charge_cpu(self._base_seconds)
                stats = self._dsm_stats
                stats.accesses += 1
                if rhome != node:
                    stats.remote_accesses += 1
                if plan != "page_fault":
                    stats.inline_checks += 1
                    try:
                        ctx._pending_cpu += self._check_seconds
                    except AttributeError:
                        ctx.charge_cpu(self._check_seconds)
                if obj.home_node == node:
                    obj.main_write(index, value)
                    return
                self._cache_entry(node, obj).write(index, value)
                return
        pages = (first,) if first == last else (first, last)
        ctx.charge_cpu(self._base_cycles / self._freq)
        self._detect(ctx, node, pages, 1, True)
        if obj.home_node == node:
            obj.main_write(index, value)
            return
        self._cache_entry(node, obj).write(index, value)

    # -- bulk accesses ---------------------------------------------------------
    def _fused_range_charges(
        self, ctx: AccessContext, node: int, first: int, last: int, count: int
    ) -> bool:
        """Charge *count* accesses to the resident pages [first, last] inline.

        The one copy of the range charge block: ``get_range``,
        ``put_range`` and ``account_accesses`` call it (the prepared
        :meth:`make_range_updater` closure evaluates the same expressions
        once per span).  Returns False — with nothing charged — whenever
        the exact ``_detect`` path must run instead: no plan, unregistered
        page, or any page of [first, last] not readable from *node*.
        """
        plan = self._fast_plan
        if plan is None:
            return False
        rhome = self._home_by_page.get(first)
        if rhome is None:
            return False
        remote = rhome != node
        if remote:
            present = self._tables[node]._present
            if first == last:
                if first not in present:
                    return False
            elif not present.issuperset(range(first, last + 1)):
                return False
        # the charges below accumulate pending CPU time directly (the exact
        # float additions ``ctx.charge_cpu`` would perform, in the same
        # order) and only fall back to the method for contexts that keep
        # their pending time elsewhere — same idiom as the fused detection
        # runs in ``core/detection.py``
        charge = (self._base_cycles * count) / self._freq
        try:
            ctx._pending_cpu += charge
        except AttributeError:
            ctx.charge_cpu(charge)
        stats = self._dsm_stats
        stats.accesses += count
        if remote:
            stats.remote_accesses += count
        if plan == "inline_check":
            stats.inline_checks += count
            charge = (self._check_cycles * count) / self._freq
            try:
                ctx._pending_cpu += charge
            except AttributeError:
                ctx.charge_cpu(charge)
        elif plan == "hoisted":
            n_pages = last - first + 1
            checks = n_pages if n_pages > 1 else 1
            stats.inline_checks += checks
            charge = (self._check_cycles * checks) / self._freq
            try:
                ctx._pending_cpu += charge
            except AttributeError:
                ctx.charge_cpu(charge)
        return True

    def get_range(
        self, ctx: AccessContext, node: int, obj: SharedEntity, lo: int, hi: int
    ) -> np.ndarray:
        """Bulk ``get`` of slots [lo, hi); accounts one access per element."""
        if not (0 <= lo < hi <= obj.num_slots):
            self._validate_range(obj, lo, hi)
        count = hi - lo
        slot_size = obj.slot_size
        address = obj.address + lo * slot_size
        page_size = self._page_size
        first = address // page_size
        last = (address + count * slot_size - 1) // page_size
        if not self._fused_range_charges(ctx, node, first, last, count):
            pages = (first,) if first == last else range(first, last + 1)
            ctx.charge_cpu((self._base_cycles * count) / self._freq)
            self._detect(ctx, node, pages, count, False)
        if obj.home_node == node:
            return obj.main_read_range(lo, hi)
        return self._cache_entry(node, obj).read_range(lo, hi)

    def put_range(
        self,
        ctx: AccessContext,
        node: int,
        obj: SharedEntity,
        lo: int,
        hi: int,
        values: Sequence,
    ) -> None:
        """Bulk ``put`` of slots [lo, hi); accounts one access per element."""
        if not (0 <= lo < hi <= obj.num_slots):
            self._validate_range(obj, lo, hi)
        count = hi - lo
        if isinstance(values, np.ndarray):
            if values.ndim and len(values) != count:
                raise ValueError(
                    f"put_range of {count} slots received {len(values)} values"
                )
        elif np.ndim(values) and len(values) != count:
            raise ValueError(
                f"put_range of {count} slots received {len(values)} values"
            )
        slot_size = obj.slot_size
        address = obj.address + lo * slot_size
        page_size = self._page_size
        first = address // page_size
        last = (address + count * slot_size - 1) // page_size
        if not self._fused_range_charges(ctx, node, first, last, count):
            pages = (first,) if first == last else range(first, last + 1)
            ctx.charge_cpu((self._base_cycles * count) / self._freq)
            self._detect(ctx, node, pages, count, True)
        if obj.home_node == node:
            obj.main_write_range(lo, hi, values)
            return
        self._cache_entry(node, obj).write_range(lo, hi, values)

    def account_accesses(
        self,
        ctx: AccessContext,
        node: int,
        obj: SharedEntity,
        count: int,
        lo: int = 0,
        hi: int | None = None,
        write: bool = False,
    ) -> None:
        """Charge detection for *count* accesses without moving data.

        The java2c translator emits one ``get``/``put`` per source-level
        access; loops such as the Jacobi stencil read several elements of the
        *same* rows per iteration.  The simulator moves each row once with a
        bulk call and uses this primitive to account the remaining per-element
        accesses so that check/fault counts match the per-access semantics of
        compiled code.
        """
        if count <= 0:
            return
        page_size = self._page_size
        if hi is None:
            address = obj.address
            size = obj.size_bytes
        else:
            slot_size = obj.slot_size
            address = obj.address + lo * slot_size
            size = (hi - lo) * slot_size
            if size < 1:
                size = 1
        first = address // page_size
        last = (address + size - 1) // page_size
        if self._fused_range_charges(ctx, node, first, last, count):
            return
        pages = (first,) if first == last else range(first, last + 1)
        ctx.charge_cpu((self._base_cycles * count) / self._freq)
        self._detect(ctx, node, pages, count, write)

    def update_range(
        self,
        ctx: AccessContext,
        node: int,
        obj: SharedEntity,
        lo: int,
        hi: int,
        transform,
        extra_obj: SharedEntity | None = None,
        extra: int = 0,
    ) -> None:
        """Fetch-modify-store over slots [lo, hi) in one call.

        ``transform`` receives the freshly read values and returns the
        values to write back, or ``None`` to skip the write entirely;
        *extra* detection-only accesses to the whole of *extra_obj* are
        accounted last.  This is the spec — and the fallback — of the
        fused closure :meth:`make_range_updater` prepares.
        """
        values = self.get_range(ctx, node, obj, lo, hi)
        new = transform(values)
        if new is not None:
            self.put_range(ctx, node, obj, lo, hi, new)
        if extra_obj is not None and extra > 0:
            self.account_accesses(ctx, node, extra_obj, extra)

    def make_range_updater(
        self,
        ctx: AccessContext,
        node: int,
        obj: SharedEntity,
        lo: int,
        hi: int,
        extra: int = 0,
    ):
        """Prepare a fused fetch-modify-store closure over a fixed span.

        Returns ``update(transform, extra_obj=None)``, behaving exactly
        like ``update_range(ctx, node, obj, lo, hi, transform, extra_obj,
        extra)`` — charge for charge, counter for counter.  The point is
        relaxation-style loops that hit the *same* span once per outer
        iteration: everything run-constant in the charges
        :meth:`_fused_range_charges` would make for the read, the
        write-back and the extra accounting (the page span, the home
        lookup, the plan branch, the charge amounts — computed here with
        the identical expressions, so the floats are bit-equal) is resolved
        once at preparation, and each call only re-checks what can actually
        change between calls: that the fast path is still enabled, page
        presence, and the per-call extra object's span.  Any failed check
        delegates to :meth:`update_range` itself.
        """
        plan = self._fast_plan
        count = hi - lo
        update_range = self.update_range
        page_size = self._page_size
        slot_size = obj.slot_size
        address = obj.address + lo * slot_size
        first = address // page_size
        last = (address + count * slot_size - 1) // page_size
        rhome = self._home_by_page.get(first)
        if plan is None or rhome is None or not (0 <= lo < hi <= obj.num_slots):

            def update(transform, extra_obj=None):
                update_range(ctx, node, obj, lo, hi, transform, extra_obj, extra)

            return update
        remote = rhome != node
        single_page = first == last
        span = range(first, last + 1)
        table = self._tables[node]
        home_by_page = self._home_by_page
        stats = self._dsm_stats
        freq = self._freq
        base = self._base_cycles
        check = self._check_cycles
        home_local = obj.home_node == node
        read_local = obj.main_read_range
        write_local = obj.main_write_range
        cache_entry = self._cache_entry
        inline = plan == "inline_check"
        hoisted = plan == "hoisted"
        # identical expressions to _fused_range_charges' per-call ones,
        # evaluated once: same operands, same operations, bit-equal results
        c_base = (base * count) / freq
        c_check = 0.0
        hoist_checks = 0
        if inline:
            c_check = (check * count) / freq
        elif hoisted:
            n_pages = last - first + 1
            hoist_checks = n_pages if n_pages > 1 else 1
            c_check = (check * hoist_checks) / freq
        c_extra = (base * extra) / freq
        c_extra_check = (check * extra) / freq

        def update(transform, extra_obj=None):
            if self._fast_plan is None:
                # the fast path was disabled after preparation (installed
                # analysis wrappers) — take the exact polymorphic route
                update_range(ctx, node, obj, lo, hi, transform, extra_obj, extra)
                return
            present = table._present
            if remote and not (
                first in present if single_page else present.issuperset(span)
            ):
                update_range(ctx, node, obj, lo, hi, transform, extra_obj, extra)
                return
            eremote = False
            efirst = elast = 0
            if extra_obj is not None and extra > 0:
                eaddress = extra_obj.address
                efirst = eaddress // page_size
                elast = (eaddress + extra_obj.size_bytes - 1) // page_size
                erhome = home_by_page.get(efirst)
                if erhome is None:
                    update_range(ctx, node, obj, lo, hi, transform, extra_obj, extra)
                    return
                eremote = erhome != node
                if eremote and not (
                    efirst in present
                    if efirst == elast
                    else present.issuperset(range(efirst, elast + 1))
                ):
                    update_range(ctx, node, obj, lo, hi, transform, extra_obj, extra)
                    return
            # -- the read's charges (get_range's _fused_range_charges block)
            try:
                ctx._pending_cpu += c_base
            except AttributeError:
                ctx.charge_cpu(c_base)
            stats.accesses += count
            if remote:
                stats.remote_accesses += count
            if inline:
                stats.inline_checks += count
                try:
                    ctx._pending_cpu += c_check
                except AttributeError:
                    ctx.charge_cpu(c_check)
            elif hoisted:
                stats.inline_checks += hoist_checks
                try:
                    ctx._pending_cpu += c_check
                except AttributeError:
                    ctx.charge_cpu(c_check)
            if home_local:
                values = read_local(lo, hi)
            else:
                values = cache_entry(node, obj).read_range(lo, hi)
            new = transform(values)
            if new is not None:
                if isinstance(new, np.ndarray):
                    if new.ndim and len(new) != count:
                        raise ValueError(
                            f"put_range of {count} slots received {len(new)} values"
                        )
                elif np.ndim(new) and len(new) != count:
                    raise ValueError(
                        f"put_range of {count} slots received {len(new)} values"
                    )
                # -- the write-back's charges
                try:
                    ctx._pending_cpu += c_base
                except AttributeError:
                    ctx.charge_cpu(c_base)
                stats.accesses += count
                if remote:
                    stats.remote_accesses += count
                if inline:
                    stats.inline_checks += count
                    try:
                        ctx._pending_cpu += c_check
                    except AttributeError:
                        ctx.charge_cpu(c_check)
                elif hoisted:
                    stats.inline_checks += hoist_checks
                    try:
                        ctx._pending_cpu += c_check
                    except AttributeError:
                        ctx.charge_cpu(c_check)
                if home_local:
                    write_local(lo, hi, new)
                else:
                    cache_entry(node, obj).write_range(lo, hi, new)
            if extra_obj is not None and extra > 0:
                # -- the detection-only accesses (account_accesses, full span)
                try:
                    ctx._pending_cpu += c_extra
                except AttributeError:
                    ctx.charge_cpu(c_extra)
                stats.accesses += extra
                if eremote:
                    stats.remote_accesses += extra
                if inline:
                    stats.inline_checks += extra
                    try:
                        ctx._pending_cpu += c_extra_check
                    except AttributeError:
                        ctx.charge_cpu(c_extra_check)
                elif hoisted:
                    e_pages = elast - efirst + 1
                    checks = e_pages if e_pages > 1 else 1
                    stats.inline_checks += checks
                    charge = (check * checks) / freq
                    try:
                        ctx._pending_cpu += charge
                    except AttributeError:
                        ctx.charge_cpu(charge)

        return update

    # -- batched runs (the replay interpreter's bulk primitives) --------------
    def get_run(
        self,
        ctx: AccessContext,
        node: int,
        obj: SharedEntity,
        slots: Sequence[int],
        extra: int = 0,
    ) -> None:
        """A run of scalar ``get``\\ s on *obj*, one per entry of *slots*.

        Semantically identical — charge for charge, counter for counter —
        to calling :meth:`get` for each slot in order (each followed by an
        ``account_accesses(count=extra)`` when *extra* is non-zero, the
        workload's ``work_multiplier`` accounting).  Values are not
        returned: this is the accounting/coherence primitive behind the
        script interpreter, whose replayed reads are discarded anyway.
        Runs of slots sharing one resident page are priced in bulk through
        the detection strategy's ``detect_access_run``; everything else —
        misses, page-straddling slots, disabled fast paths — degrades to
        the per-element entry points of this instance (so installed
        wrappers observe every access).
        """
        detect_run = self._detect_run
        if detect_run is None:
            get = self.get
            if extra:
                account = self.account_accesses
                for slot in slots:
                    get(ctx, node, obj, slot)
                    account(ctx, node, obj, extra, lo=slot, hi=slot + 1, write=False)
            else:
                for slot in slots:
                    get(ctx, node, obj, slot)
            return
        slot_size = obj.slot_size
        page_size = self._page_size
        base_addr = obj.address
        base_s = self._base_seconds
        extra_base_s = (self._base_cycles * extra) / self._freq if extra else 0.0
        i = 0
        n = len(slots)
        while i < n:
            slot = slots[i]
            address = base_addr + slot * slot_size
            page = address // page_size
            if (address + slot_size - 1) // page_size != page:
                # page-straddling element: exact path, one element
                self.get(ctx, node, obj, slot)
                if extra:
                    self.account_accesses(
                        ctx, node, obj, extra, lo=slot, hi=slot + 1, write=False
                    )
                i += 1
                continue
            j = i + 1
            while j < n:
                a = base_addr + slots[j] * slot_size
                if a // page_size != page or (a + slot_size - 1) // page_size != page:
                    break
                j += 1
            if detect_run(ctx, node, page, j - i, False, base_s, extra, extra_base_s):
                i = j
                continue
            # the page is not resident (or the strategy refused): run one
            # element exactly — fetching the page — and re-batch the rest
            self.get(ctx, node, obj, slot)
            if extra:
                self.account_accesses(
                    ctx, node, obj, extra, lo=slot, hi=slot + 1, write=False
                )
            i += 1

    def put_run(
        self,
        ctx: AccessContext,
        node: int,
        obj: SharedEntity,
        slots: Sequence[int],
        values: Sequence,
        extra: int = 0,
    ) -> None:
        """A run of scalar ``put``\\ s: ``put(slots[k], values[k])`` for all k.

        Batched twin of :meth:`get_run` for writes (the extra accounting
        accesses are written-flagged, matching the unbatched interpreter).
        Unlike reads, the data movement is not elidable: every element is
        written to the home copy or recorded dirty in the node cache, so
        monitor-exit flushes carry identical bytes.
        """
        if len(values) != len(slots):
            raise ValueError(
                f"put_run of {len(slots)} slots received {len(values)} values"
            )
        detect_run = self._detect_run
        if detect_run is None:
            put = self.put
            if extra:
                account = self.account_accesses
                for k, slot in enumerate(slots):
                    put(ctx, node, obj, slot, values[k])
                    account(ctx, node, obj, extra, lo=slot, hi=slot + 1, write=True)
            else:
                for k, slot in enumerate(slots):
                    put(ctx, node, obj, slot, values[k])
            return
        slot_size = obj.slot_size
        page_size = self._page_size
        base_addr = obj.address
        base_s = self._base_seconds
        extra_base_s = (self._base_cycles * extra) / self._freq if extra else 0.0
        local = obj.home_node == node
        entry = None
        i = 0
        n = len(slots)
        while i < n:
            slot = slots[i]
            address = base_addr + slot * slot_size
            page = address // page_size
            if (address + slot_size - 1) // page_size != page:
                self.put(ctx, node, obj, slot, values[i])
                if extra:
                    self.account_accesses(
                        ctx, node, obj, extra, lo=slot, hi=slot + 1, write=True
                    )
                i += 1
                continue
            j = i + 1
            while j < n:
                a = base_addr + slots[j] * slot_size
                if a // page_size != page or (a + slot_size - 1) // page_size != page:
                    break
                j += 1
            if detect_run(ctx, node, page, j - i, True, base_s, extra, extra_base_s):
                if local:
                    for k in range(i, j):
                        obj.main_write(slots[k], values[k])
                else:
                    if entry is None:
                        entry = self._cache_entry(node, obj)
                    write = entry.write
                    for k in range(i, j):
                        write(slots[k], values[k])
                i = j
                continue
            self.put(ctx, node, obj, slot, values[i])
            if extra:
                self.account_accesses(
                    ctx, node, obj, extra, lo=slot, hi=slot + 1, write=True
                )
            i += 1

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_range(obj: SharedEntity, lo: int, hi: int) -> None:
        if not (0 <= lo < hi <= obj.num_slots):
            raise IndexError(
                f"range [{lo}, {hi}) out of bounds for entity with "
                f"{obj.num_slots} slots"
            )

    def cache_for(self, node: int) -> ObjectCache:
        """The object cache of *node*."""
        return self.caches[node]

    def primitive_names(self) -> dict[str, str]:
        """The Table 2 primitive names and their descriptions (for tests/docs)."""
        return {
            "loadIntoCache": "Load an object into the cache",
            "invalidateCache": "Invalidate all entries in the cache",
            "updateMainMemory": "Update memory with modifications made to objects in the cache",
            "get": "Retrieve a field from an object previously loaded into the cache",
            "put": "Modify a field in an object previously loaded into the cache",
        }
