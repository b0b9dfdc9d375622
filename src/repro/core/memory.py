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

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cluster.costs import CostModel
from repro.core.cache import CachedObject, ObjectCache
from repro.core.context import AccessContext
from repro.core.detection import HybridDetection
from repro.core.interfaces import SharedEntity
from repro.core.protocol import ConsistencyProtocol
from repro.core.stats import RunStats
from repro.dsm.page_manager import PageManager

#: the step tags of :meth:`MemorySubsystem.replay_segment` (the access ops
#: of the scenario script IR)
GET, PUT, GET_RUN, PUT_RUN, COMPUTE = "get", "put", "get_run", "put_run", "compute"


def _repeat(pending: float, count: int, amounts: tuple) -> float:
    """*pending* plus the two or four *amounts* in order, *count* times over."""
    if len(amounts) == 2:
        base, check = amounts
        for _ in range(count):
            pending += base
            pending += check
    else:
        base, check, extra_base, extra_check = amounts
        for _ in range(count):
            pending += base
            pending += check
            pending += extra_base
            pending += extra_check
    return pending


def _fold(pending: float, steps: np.ndarray) -> float:
    """*pending* plus ``steps[1:]`` added one at a time, in order.

    ``steps[0]`` is overwritten with *pending*.  ``np.add.accumulate`` is
    sequential (a reduction would sum pairwise), so the result is bit-equal
    to charging each amount in turn; a zero amount leaves the sum unchanged.
    """
    steps[0] = pending
    return float(np.add.accumulate(steps)[-1])


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
        # -- fused access fast path.  When the protocol can prove that
        # charging a resident access inline is byte-identical to
        # ``detect_access`` (a stock detection implementation — see
        # ``access_fast_plan``), the primitives below charge resident
        # accesses inline and ``replay_segment`` prices a script segment at
        # once.  The checks come from the strategy's counts; a strategy
        # whose checks depend on per-page state (the hybrid's) is asked per
        # access instead (``_adaptive``).  A policy that observes writes
        # gets its hook (``_note_write``) called after every fused write,
        # and then multi-page spans, segment writes and the block updater
        # take the exact (or per-row) path, since a re-home can split an
        # object's homes or land in the middle of a segment.  Every miss,
        # every unusual page and every disabled configuration falls back to
        # the exact ``_detect`` path, byte for byte.
        plan = self._fast_plan = protocol.access_fast_plan()
        self._note_write = protocol.write_observer() if plan is not None else None
        self._access_checks = self._page_checks = 0
        self._adaptive = None
        if plan is not None:
            strategy = protocol.detection_strategy()
            self._access_checks = strategy.checks_per_access
            self._page_checks = strategy.checks_per_page
            if isinstance(strategy, HybridDetection):
                self._adaptive = strategy
        self._home_by_page = page_manager._home_by_page
        self._tables = page_manager.tables
        self._dsm_stats = page_manager.stats
        self._check_cycles = protocol._check_cycles
        # the per-call expression for one access ((cycles * 1) is exact)
        self._base_seconds = self._base_cycles / self._freq

    def disable_access_fast_path(self) -> None:
        """Route every access through the exact polymorphic path.

        Installed analysis layers (the consistency sanitizer) wrap the
        per-instance entry points; the fused fast path would bypass those
        wrappers, so such layers turn it off for the whole run.
        """
        self._fast_plan = None
        self._note_write = None

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
        if obj.home_node == node:
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
        self._charge_accesses(
            ctx, node, address // page_size, (address + slot_size - 1) // page_size, 1, False
        )
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
        self._charge_accesses(
            ctx, node, address // page_size, (address + slot_size - 1) // page_size, 1, True
        )
        if obj.home_node == node:
            obj.main_write(index, value)
            return
        self._cache_entry(node, obj).write(index, value)

    # -- bulk accesses ---------------------------------------------------------
    def _charge_accesses(
        self,
        ctx: AccessContext,
        node: int,
        first: int,
        last: int,
        count: int,
        write: bool,
    ) -> None:
        """Charge *count* accesses from *node* to the pages [first, last].

        The one charge block of ``get``, ``put``, ``get_range``,
        ``put_range``, ``account_accesses`` and a segment's exact accesses
        and *extra* accounting after a miss (the block paths of
        :meth:`make_range_updater` evaluate the same expressions once per
        block, and ``replay_segment`` for its resident accesses).  Under the fast plan
        a resident span is charged here, in the values and order of the
        exact path: the base, then the strategy's checks; a *write* then
        reaches the policy's write hook, before the caller moves any data.
        Everything else takes the exact ``_detect`` path: no plan, an
        unregistered page, any page of [first, last] not readable from
        *node*, or a multi-page span while homes can move (a re-home can
        give one object's pages different homes, so the first page's home
        no longer classifies the span).
        """
        rhome = None if self._fast_plan is None else self._home_by_page.get(first)
        remote = rhome != node
        note = self._note_write
        if (
            rhome is None
            or (first != last and note is not None)
            or remote and not (
                first in self._tables[node]._present if first == last
                else self._tables[node]._present.issuperset(range(first, last + 1))
            )
        ):
            ctx.charge_cpu((self._base_cycles * count) / self._freq)
            pages = (first,) if first == last else range(first, last + 1)
            self._detect(ctx, node, pages, count, write)
            return
        if self._adaptive is None:
            checks = self._access_checks * count
            if self._page_checks:
                checks += self._page_checks * (last - first + 1)
        else:
            span = range(first, last + 1)
            checks = self._adaptive.checks_due(node, span, count)
            self._adaptive.observe(node, span, count)
        # the exact float additions ``ctx.charge_cpu`` would perform, in the
        # same order (a check-free +0.0 leaves the sum unchanged); only
        # contexts that keep their pending time elsewhere take the method
        base = (self._base_cycles * count) / self._freq
        check = (self._check_cycles * checks) / self._freq
        try:
            ctx._pending_cpu = ctx._pending_cpu + base + check
        except AttributeError:
            ctx.charge_cpu(base)
            if checks:
                ctx.charge_cpu(check)
        stats = self._dsm_stats
        stats.accesses += count
        if remote:
            stats.remote_accesses += count
        if checks:
            stats.inline_checks += checks
        if write and note is not None:
            note(ctx, node, (first,))

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
        self._charge_accesses(
            ctx, node, address // page_size, (address + count * slot_size - 1) // page_size,
            count, False,
        )
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
        self._charge_accesses(
            ctx, node, address // page_size, (address + count * slot_size - 1) // page_size,
            count, True,
        )
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
        compiled code: the halo form of :meth:`make_range_updater`, which
        Jacobi relaxes its rows with, accounts them on each centre row, and
        the in-place form on one extra object per row.
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
        self._charge_accesses(
            ctx, node, address // page_size, (address + size - 1) // page_size, count, write
        )

    def _block_access(
        self, node: int, obj: SharedEntity, lo: int, hi: int | None, count: int
    ) -> tuple[int, int] | None:
        """(accesses, inline checks) of one block-path range access.

        What :meth:`_charge_accesses` counts for *count* accesses to
        slots [lo, hi) of *obj* (all of it when *hi* is None, as
        ``account_accesses`` spans it) under a fixed-home plan, or None
        unless *obj* and the span's first page are homed on *node* — only
        then are the charges independent of residency, so the block path
        can price them at preparation.
        """
        page_size = self._page_size
        if hi is None:
            address, size = obj.address, obj.size_bytes
        else:
            address = obj.address + lo * obj.slot_size
            size = max(1, (hi - lo) * obj.slot_size)
        first = address // page_size
        if obj.home_node != node or self._home_by_page.get(first) != node:
            return None
        pages = (address + size - 1) // page_size - first + 1
        return count, self._access_checks * count + self._page_checks * pages

    def _charge_template(self, accesses, checks, row_seconds: float) -> np.ndarray:
        """The charges of a block of rows, laid out for :func:`_fold`.

        *accesses* and *checks* are (rows, calls) arrays: each range call
        of a row in order, as :meth:`_block_access` counts it.  Returns
        [pending slot, then per row each call's base then check seconds,
        then *row_seconds*] — the amounts ``_charge_accesses``'
        expressions give, so every float is bit-equal to its own.
        """
        accesses = np.asarray(accesses, dtype=np.float64)
        checks = np.asarray(checks, dtype=np.float64)
        n_rows, calls = accesses.shape
        steps = np.zeros(1 + n_rows * (2 * calls + 1))
        grid = steps[1:].reshape(n_rows, 2 * calls + 1)
        grid[:, 0:-1:2] = (self._base_cycles * accesses) / self._freq
        grid[:, 1:-1:2] = (self._check_cycles * checks) / self._freq
        grid[:, -1] = row_seconds
        return steps

    def make_range_updater(
        self,
        ctx: AccessContext,
        node: int,
        rows: Sequence[SharedEntity],
        lo: int,
        hi: int,
        extra: int = 0,
        row_seconds: float = 0.0,
        into: Sequence[SharedEntity] | None = None,
    ):
        """Prepare a fused fetch-modify-store closure over a block of rows.

        In place (no *into*) it returns ``update(transform,
        extra_obj=None, skip=None)``.  ``transform(block)`` gets a 2-D
        array, one row per row of *rows*, and returns ``(new_block,
        written)``.  The spec — and the fallback — is the per-row loop
        below: for each row in order but position *skip*, ``get_range`` of
        slots [lo, hi), the transform on that one row, ``put_range`` of the
        new values if the row is written, ``account_accesses(extra_obj,
        extra)`` over the whole of *extra_obj*, then
        ``ctx.charge_cpu(row_seconds)``.  The transform must be row-wise,
        as the block path hands it the whole block, skipped row included,
        in one call.

        With *into* (the halo form) *rows* are source rows with one halo
        row above and below the ``len(into)`` rows updated, and it returns
        ``update(transform)``.  Its spec, row ``j`` of *into* at a time:
        ``get_range`` of ``rows[j + 1]`` over [lo - 1, hi + 1) (the
        centre row with its west/east halo slots), then of ``rows[j]`` and
        ``rows[j + 2]`` over [lo, hi) (north, south), ``put_range`` of
        ``transform(centre, north, south)`` into ``into[j]`` over [lo, hi),
        ``account_accesses(rows[j + 1], extra)``, then
        ``charge_cpu(row_seconds)``.  The transform gets 1-D rows there
        and 2-D blocks on the block path (``centre[..., :-2]`` serves
        both), and must not modify its arguments.

        Both block paths fold every charge into ``ctx._pending_cpu`` in the
        per-row order (:func:`_fold`).  They need a plan whose checks are
        the strategy's counts alone (not the hybrid's) and fixed homes (no
        write observer), rows that are consecutive rows of one heap matrix
        (``matrix``/``matrix_row``; *into* of another) and a context with
        ``_pending_cpu``.  In place, every row must be homed on *node* and,
        per call, *extra_obj* resident; the whole block then moves with
        one copy and one masked write-back.  In the halo form each maximal
        run of rows whose four touched rows are homed on *node* moves and
        folds at once; any other row (a remote halo row at a block edge)
        runs the spec at its position, so fetches happen in the same
        order.  Anything else — including :meth:`disable_access_fast_path`
        after preparation — runs the spec.
        """
        if into is not None:
            return self._make_halo_updater(ctx, node, rows, lo, hi, extra, row_seconds, into)
        get_range = self.get_range
        put_range = self.put_range
        account = self.account_accesses
        charge_cpu = ctx.charge_cpu

        def per_row(transform, extra_obj=None, skip=None):
            for j, row in enumerate(rows):
                if j == skip:
                    continue
                new, written = transform(get_range(ctx, node, row, lo, hi)[None])
                if written[0]:
                    put_range(ctx, node, row, lo, hi, new[0])
                if extra_obj is not None and extra > 0:
                    account(ctx, node, extra_obj, extra)
                charge_cpu(row_seconds)

        matrix = self._block_matrix(ctx, rows, lo, hi)
        if matrix is None:
            return per_row
        count = hi - lo
        top = rows[0].matrix_row
        row_checks = []  # inline checks per read (and write-back) of each row
        for row in rows:
            access = self._block_access(node, row, lo, hi, count)
            if access is None:
                return per_row
            row_checks.append(access[1])
        n_rows = len(rows)
        # the read, the write-back, the extra accounting (its checks depend
        # on the extra object, so they are set per call)
        template = self._charge_template(
            [[count, count, extra]] * n_rows,
            [[c, c, 0] for c in row_checks],
            row_seconds,
        )
        checks = np.array(row_checks)
        block = matrix[top : top + n_rows, lo:hi]
        page_size = self._page_size
        home_by_page = self._home_by_page
        present = self._tables[node]._present
        stats = self._dsm_stats
        freq, check = self._freq, self._check_cycles
        access_checks, page_checks = self._access_checks, self._page_checks

        def update(transform, extra_obj=None, skip=None):
            if self._fast_plan is None:
                return per_row(transform, extra_obj, skip)
            steps = template.copy()
            grid = steps[1:].reshape(n_rows, 7)
            eremote = False
            echecks = extra_accesses = 0
            if extra_obj is not None and extra > 0:
                eaddress = extra_obj.address
                efirst = eaddress // page_size
                elast = (eaddress + extra_obj.size_bytes - 1) // page_size
                erhome = home_by_page.get(efirst)
                if erhome is None:
                    return per_row(transform, extra_obj, skip)
                eremote = erhome != node
                if eremote and not (
                    efirst in present
                    if efirst == elast
                    else present.issuperset(range(efirst, elast + 1))
                ):
                    return per_row(transform, extra_obj, skip)
                extra_accesses = extra
                echecks = access_checks * extra + page_checks * (elast - efirst + 1)
                grid[:, 5] = (check * echecks) / freq
            else:
                grid[:, 4:6] = 0.0
            new, written = transform(block.copy())
            visits = np.add(written, 1, dtype=np.int64)  # the read, the write-back
            visited = n_rows
            if skip is not None:
                visits[skip] = 0
                grid[skip] = 0.0
                visited -= 1
            grid[visits < 2, 2:4] = 0.0
            # unsafe casting, as put_range's slice assignment casts
            np.copyto(block, new, casting="unsafe", where=(visits == 2)[:, None])
            ctx._pending_cpu = _fold(ctx._pending_cpu, steps)
            stats.accesses += count * int(visits.sum()) + extra_accesses * visited
            if eremote:
                stats.remote_accesses += extra * visited
            stats.inline_checks += int(checks @ visits) + echecks * visited

        return update

    def _block_matrix(self, ctx: AccessContext, rows, lo: int, hi: int):
        """The heap matrix whose consecutive rows *rows* are, or None.

        None also when the block path is off for this plan or context, or
        slots [lo, hi) lie outside the rows: the caller then runs its spec.
        """
        matrix = getattr(rows[0], "matrix", None) if rows else None
        if (
            self._fast_plan is None
            or self._adaptive is not None
            or self._note_write is not None
            or matrix is None
            or not hasattr(ctx, "_pending_cpu")
            or not 0 <= lo < hi <= matrix.shape[1]
        ):
            return None
        top = rows[0].matrix_row
        for j, row in enumerate(rows):
            if getattr(row, "matrix", None) is not matrix or row.matrix_row != top + j:
                return None
        return matrix

    def _make_halo_updater(self, ctx, node, rows, lo, hi, extra, row_seconds, into):
        """The halo form of :meth:`make_range_updater` (see there)."""
        if len(rows) != len(into) + 2:
            raise ValueError(
                f"{len(into)} destination rows need {len(into) + 2} source rows, "
                f"got {len(rows)}"
            )
        get_range = self.get_range
        put_range = self.put_range
        account = self.account_accesses
        charge_cpu = ctx.charge_cpu

        def row_update(transform, j):
            centre = get_range(ctx, node, rows[j + 1], lo - 1, hi + 1)
            north = get_range(ctx, node, rows[j], lo, hi)
            south = get_range(ctx, node, rows[j + 2], lo, hi)
            put_range(ctx, node, into[j], lo, hi, transform(centre, north, south))
            if extra > 0:
                account(ctx, node, rows[j + 1], extra)
            charge_cpu(row_seconds)

        def per_row(transform):
            for j in range(len(into)):
                row_update(transform, j)

        source = self._block_matrix(ctx, rows, lo - 1, hi + 1)
        dest = self._block_matrix(ctx, into, lo, hi)
        if source is None or dest is None or source is dest:
            return per_row
        count = hi - lo
        calls = []  # per row: (accesses, checks) of each range call, or None
        for j, target in enumerate(into):
            centre = rows[j + 1]
            row_calls = [
                self._block_access(node, centre, lo - 1, hi + 1, count + 2),
                self._block_access(node, rows[j], lo, hi, count),
                self._block_access(node, rows[j + 2], lo, hi, count),
                self._block_access(node, target, lo, hi, count),
                # account_accesses charges nothing for a count of zero
                self._block_access(node, centre, 0, None, extra) if extra > 0 else (0, 0),
            ]
            calls.append(None if None in row_calls else row_calls)
        # split into spec rows and maximal runs of block rows, each run with
        # its template and its read-only views of the two matrices
        segments = []
        top, dtop = rows[0].matrix_row, into[0].matrix_row
        j = 0
        while j < len(into):
            if calls[j] is None:
                segments.append((j, None))
                j += 1
                continue
            stop = j
            while stop < len(into) and calls[stop] is not None:
                stop += 1
            counts = np.array(calls[j:stop])  # (rows, calls, 2)
            views = (
                source[top + j + 1 : top + stop + 1, lo - 1 : hi + 1],
                source[top + j : top + stop, lo:hi],
                source[top + j + 2 : top + stop + 2, lo:hi],
            )
            for view in views:
                view.flags.writeable = False
            run = (
                self._charge_template(counts[:, :, 0], counts[:, :, 1], row_seconds),
                views,
                dest[dtop + j : dtop + stop, lo:hi],
                int(counts[:, :, 0].sum()),
                int(counts[:, :, 1].sum()),
            )
            segments.append((j, run))
            j = stop
        stats = self._dsm_stats

        def update(transform):
            if self._fast_plan is None:
                return per_row(transform)
            for j, run in segments:
                if run is None:
                    row_update(transform, j)
                    continue
                steps, views, out, accesses, checks = run
                # unsafe casting, as put_range's slice assignment casts
                np.copyto(out, transform(*views), casting="unsafe")
                ctx._pending_cpu = _fold(ctx._pending_cpu, steps)
                stats.accesses += accesses
                stats.inline_checks += checks

        return update

    # -- script segments (the replay interpreter's one call per segment) ------
    def replays_segments(self) -> bool:
        """True when :meth:`replay_segment` may run: there is a fast plan.

        Without one (the sanitizer, :func:`reference_detection`) every
        access must reach the exact entry points, so scripts replay op by op.
        """
        return self._fast_plan is not None

    def replay_segment(
        self,
        ctx: AccessContext,
        node: int,
        entities: Sequence[SharedEntity],
        steps: Sequence[tuple],
        extra: int = 0,
        compute_seconds: Mapping[float, float] | None = None,
    ) -> None:
        """Replay *steps*, accesses and computes with no sync between them.

        Steps are ``(GET, o, slot)``, ``(PUT, o, slot, value)``,
        ``(GET_RUN, o, slots)``, ``(PUT_RUN, o, slots, values)`` on
        ``entities[o]`` (run slots a tuple, or a ``range`` when contiguous
        and ascending) and ``(COMPUTE, cycles)``.  The spec is the per-op
        sequence: for each access :meth:`get` or :meth:`put`, then
        ``account_accesses(count=extra)`` on its slot when *extra* is
        non-zero; for each compute, ``compute_seconds[cycles]`` of CPU.
        Read values are discarded.  *ctx* keeps its pending CPU time in
        ``_pending_cpu``.

        Nothing yields within a segment, so only this thread acts on the
        memory and residency only grows.  Each access takes one of three
        paths, at its position in the per-op order:

        - a *miss* (the first access to a remote page that is not
          resident, for a run its first slot on the page) charges the
          base and calls the strategy's ``detect_access`` for its page
          itself, then charges the *extra* accounting through
          :meth:`_charge_accesses`;
        - an unregistered page, a slot straddling two pages and, while
          homes can move, every write take :meth:`_exact_access`; the
          accesses after them read their page's home afresh;
        - every other access is resident and charged here.  Unless the
          strategy is adaptive each adds the same base, check, extra base
          and extra check, so consecutive ones are only counted until a
          compute, a miss, an exact call or the end folds them
          (:func:`_repeat`); an adaptive one charges a page's accesses of
          one step itself (:meth:`HybridDetection.replay_charges`).

        Resident counters are added once; a run is written with one write
        of its last value per slot.
        """
        if self._fast_plan is None:
            raise RuntimeError("replay_segment needs a fast plan")
        if len(steps) == 1 and steps[0][0] == COMPUTE:
            # the think time between two critical sections needs no access state
            ctx._pending_cpu += compute_seconds[steps[0][1]]
            return
        page_size = self._page_size
        home_of = self._home_by_page.get
        present = self._tables[node]._present
        detect, charge, exact = self._detect, self._charge_accesses, self._exact_access
        # the checks of one access, then of account_accesses(count=extra) on
        # its page; a check-free +0.0 leaves the sum bit-unchanged
        checks = self._access_checks + self._page_checks
        extra_checks = self._access_checks * extra + self._page_checks if extra else 0
        base = self._base_seconds
        amounts = (base, (self._check_cycles * checks) / self._freq)
        if extra:
            amounts += (
                (self._base_cycles * extra) / self._freq,
                (self._check_cycles * extra_checks) / self._freq,
            )
        adaptive = self._adaptive
        observed = self._note_write is not None
        pending = ctx._pending_cpu
        run = 0  # resident accesses not yet charged (unless adaptive)
        hits = remote_hits = adaptive_checks = 0
        objects: dict[int, tuple] = {}
        for step in steps:
            tag = step[0]
            if tag == COMPUTE:
                if run:
                    pending = _repeat(pending, run, amounts)
                    run = 0
                pending += compute_seconds[step[1]]
                continue
            o = step[1]
            info = objects.get(o)
            if info is None:
                entity = entities[o]
                address, slot_size = entity.address, entity.slot_size
                # puts go to the home copy, or to the node's cached copy
                entry = None if entity.home_node == node else self._cache_entry(node, entity)
                info = objects[o] = (
                    entity,
                    address,
                    slot_size,
                    address % slot_size == 0 and page_size % slot_size == 0,  # no slot straddles
                    *((entity.main_write, entity.main_write_slots) if entry is None
                      else (entry.write, entry.write_slots)),
                )
            entity, address, slot_size, aligned, write_one, write_many = info
            write = tag == PUT or tag == PUT_RUN
            if write and observed:  # a write may re-home its page: put tells the policy
                for slot, value in zip(*(((step[2],), (step[3],)) if tag == PUT else step[2:])):
                    pending = exact(
                        ctx, node, entity, slot, True, extra,
                        _repeat(pending, run, amounts) if run else pending,
                    )
                    run = 0
                    write_one(slot, value)
                continue
            if tag == GET or tag == PUT:
                slot = step[2]
                start = address + slot * slot_size
                page = start // page_size
                rhome = home_of(page)
                if rhome is None or (not aligned and (start + slot_size - 1) // page_size != page):
                    pending = exact(
                        ctx, node, entity, slot, write, extra,
                        _repeat(pending, run, amounts) if run else pending,
                    )
                    run = 0
                elif rhome != node and page not in present:  # a miss
                    ctx._pending_cpu = (_repeat(pending, run, amounts) if run else pending) + base
                    run = 0
                    detect(ctx, node, (page,), 1, write)
                    if extra:
                        charge(ctx, node, page, page, extra, write)
                    pending = ctx._pending_cpu
                else:
                    hits += 1
                    if rhome != node:
                        remote_hits += 1
                    if adaptive:
                        pending, paid = adaptive.replay_charges(
                            pending, node, page, 1, extra, amounts
                        )
                        adaptive_checks += paid
                    else:
                        run += 1
                if write:
                    write_one(slot, step[3])
                continue
            # a run: its slots on one page at a time
            slots = step[2]
            contiguous = aligned and slots.__class__ is range
            count = len(slots)
            k = 0
            while k < count:
                slot = slots[k]
                start = address + slot * slot_size
                page = start // page_size
                # the run's accesses on this page: up to the page's end if
                # the slots are contiguous, else this one
                n = min(count - k, ((page + 1) * page_size - start) // slot_size) if contiguous else 1
                rhome = home_of(page)
                if rhome is None or (not aligned and (start + slot_size - 1) // page_size != page):
                    pending = exact(
                        ctx, node, entity, slot, write, extra,
                        _repeat(pending, run, amounts) if run else pending,
                    )
                    run = 0
                    k += 1
                    n -= 1  # the page is resident from here on
                elif rhome != node and page not in present:  # a miss, as above
                    ctx._pending_cpu = (_repeat(pending, run, amounts) if run else pending) + base
                    run = 0
                    detect(ctx, node, (page,), 1, write)
                    if extra:
                        charge(ctx, node, page, page, extra, write)
                    pending = ctx._pending_cpu
                    k += 1
                    n -= 1
                k += n
                hits += n
                if rhome != node:
                    remote_hits += n
                if not adaptive:
                    run += n
                elif n:
                    pending, paid = adaptive.replay_charges(pending, node, page, n, extra, amounts)
                    adaptive_checks += paid
            if write:
                last = dict(zip(slots, step[3]))
                write_many(list(last), list(last.values()))
        ctx._pending_cpu = _repeat(pending, run, amounts) if run else pending
        stats = self._dsm_stats
        stats.accesses += hits * (1 + extra)
        stats.remote_accesses += remote_hits * (1 + extra)
        stats.inline_checks += adaptive_checks if adaptive else hits * (checks + extra_checks)

    def _exact_access(
        self, ctx: AccessContext, node: int, obj: SharedEntity, slot: int, write: bool,
        extra: int, pending: float,
    ) -> float:
        """The charges of one scripted access, without its data.

        What :meth:`get` or :meth:`put` of *slot*, then
        ``account_accesses(count=extra)`` on it, charge, through the one
        charge block (:meth:`_charge_accesses`): the exact ``_detect``
        path for an unregistered page, a straddling slot or a miss, and
        the policy's write hook after a write.  *pending* is the segment's
        pending CPU time so far; returns it after the access.  The caller
        moves the data.
        """
        ctx._pending_cpu = pending
        start = obj.address + slot * obj.slot_size
        first, last = start // self._page_size, (start + obj.slot_size - 1) // self._page_size
        self._charge_accesses(ctx, node, first, last, 1, write)
        if extra:
            self._charge_accesses(ctx, node, first, last, extra, write)
        return ctx._pending_cpu

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_range(obj: SharedEntity, lo: int, hi: int) -> None:
        if not (0 <= lo < hi <= obj.num_slots):
            raise IndexError(
                f"range [{lo}, {hi}) out of bounds for entity with "
                f"{obj.num_slots} slots"
            )
