"""Tests for the memory subsystem (Table 2 primitives and bulk variants)."""

import dataclasses

import numpy as np
import pytest

from repro.core.context import AccessContext, RecordingContext
from repro.hyperion.objects import JavaArray


def test_table2_primitive_inventory(rig_factory):
    rig = rig_factory()
    names = rig.memory.primitive_names()
    assert set(names) == {"loadIntoCache", "invalidateCache", "updateMainMemory", "get", "put"}
    assert "cache" in names["loadIntoCache"].lower()


def test_get_put_on_home_node_touch_main_memory(rig_factory, point_class):
    rig = rig_factory()
    obj = rig.heap.new_object(point_class, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.put(ctx, 0, obj, 0, 3.5)
    assert obj.main_read(0) == 3.5
    assert rig.memory.get(ctx, 0, obj, 0) == 3.5
    # no cache entry is created for locally homed objects
    assert len(rig.memory.cache_for(0)) == 0


def test_remote_put_is_invisible_until_update_main_memory(rig_factory, point_class):
    rig = rig_factory()
    obj = rig.heap.new_object(point_class, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.put(ctx, 0, obj, 1, 42)
    # main memory (home copy) still holds the old value: Java consistency
    # only requires the update to be visible after the monitor exit
    assert obj.main_read(1) == 0
    flushed = rig.memory.update_main_memory(ctx, 0)
    assert flushed == obj.slot_size
    assert obj.main_read(1) == 42
    assert rig.memory.run_stats.dsm.update_messages == 1
    assert rig.memory.run_stats.dsm.update_bytes == obj.slot_size


def test_remote_get_can_be_stale_until_invalidate(rig_factory, point_class):
    rig = rig_factory()
    obj = rig.heap.new_object(point_class, home_node=1)
    reader = rig.ctx(0)
    # reader caches the object while the field is still 0
    assert rig.memory.get(reader, 0, obj, 0) == 0
    # the home node updates the reference copy directly
    home_ctx = rig.ctx(1)
    rig.memory.put(home_ctx, 1, obj, 0, 7)
    # reader still sees its cached copy (allowed by the JMM)...
    assert rig.memory.get(reader, 0, obj, 0) == 0
    # ...until it passes an acquire point
    rig.memory.invalidate_cache(reader, 0)
    assert rig.memory.get(reader, 0, obj, 0) == 7


def test_load_into_cache_prefetches_whole_page(rig_factory):
    rig = rig_factory(protocol="java_pf")
    # two small arrays that share a page on node 1
    first = rig.heap.new_array("double", 8, home_node=1)
    second = rig.heap.new_array("double", 8, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.load_into_cache(ctx, 0, first)
    fetches = rig.page_manager.stats.page_fetches
    # the second object lives on the already-fetched page: no new transfer
    rig.memory.get(ctx, 0, second, 0)
    assert rig.page_manager.stats.page_fetches == fetches


def test_get_range_put_range_roundtrip_remote(rig_factory):
    rig = rig_factory()
    array = rig.heap.new_array("int", 32, home_node=2)
    writer = rig.ctx(0)
    rig.memory.put_range(writer, 0, array, 0, 32, np.arange(32, dtype=np.int32))
    rig.memory.update_main_memory(writer, 0)
    reader = rig.ctx(1)
    values = rig.memory.get_range(reader, 1, array, 0, 32)
    assert np.array_equal(values, np.arange(32))


def test_range_validation(rig_factory):
    rig = rig_factory()
    array = rig.heap.new_array("double", 8, home_node=0)
    ctx = rig.ctx(0)
    with pytest.raises(IndexError):
        rig.memory.get_range(ctx, 0, array, 0, 9)
    with pytest.raises(IndexError):
        rig.memory.get_range(ctx, 0, array, 5, 5)
    with pytest.raises(ValueError):
        rig.memory.put_range(ctx, 0, array, 0, 4, [1.0, 2.0])


def test_account_accesses_charges_without_moving_data(rig_factory):
    rig = rig_factory(protocol="java_ic")
    array = rig.heap.new_array("double", 16, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.account_accesses(ctx, 0, array, 1000)
    assert rig.page_manager.stats.inline_checks == 1000
    assert rig.page_manager.stats.accesses == 1000
    # zero/negative counts are ignored
    rig.memory.account_accesses(ctx, 0, array, 0)
    assert rig.page_manager.stats.accesses == 1000


def test_update_message_not_sent_for_local_dirty_data(rig_factory, point_class):
    rig = rig_factory()
    ctx = rig.ctx(0)
    obj = rig.heap.new_object(point_class, home_node=0)
    rig.memory.put(ctx, 0, obj, 0, 1.0)
    rig.memory.update_main_memory(ctx, 0)
    assert rig.memory.run_stats.dsm.update_messages == 0


def test_stats_remote_access_counter(rig_factory, point_class):
    rig = rig_factory()
    remote = rig.heap.new_object(point_class, home_node=1)
    local = rig.heap.new_object(point_class, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.get(ctx, 0, local, 0)
    rig.memory.get(ctx, 0, remote, 0)
    assert rig.page_manager.stats.accesses == 2
    assert rig.page_manager.stats.remote_accesses == 1


class PendingContext(AccessContext):
    """Keeps pending CPU/wait time the way ``JavaThreadContext`` does."""

    def __init__(self, node_id: int = 0):
        self.node_id = node_id
        self._pending_cpu = 0.0
        self._pending_wait = 0.0

    def charge_cpu(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._pending_cpu += seconds

    def charge_wait(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._pending_wait += seconds


def _drive_primitives(rig, ctx) -> list:
    """One fixed sequence of every access primitive, from node 0.

    Covers a local span, remote spans that are absent (first touch, and
    again after the acquire ending each phase) and resident, a three-page
    span with only its first two pages resident, and a double array
    placed 4 bytes off alignment so slot 511 straddles a page boundary.
    Returns everything read back, in order.
    """
    memory, heap, node = rig.memory, rig.heap, 0
    local = heap.new_array("double", 64, home_node=0)
    remote = heap.new_array("double", 64, home_node=1)
    wide = heap.new_array("double", 1500, home_node=2, page_aligned=True)
    base = rig.isoaddr.allocate_pages(1, 2).address
    skewed = JavaArray("double", 600, base + 4, 1)
    rig.page_manager.register_range(base, 2 * rig.isoaddr.page_size)

    def plus_one(values):
        return values + 1.0

    def keep(values):
        return None

    # prepared once; the first two are called at the start of each phase
    # while their remote span (remote) or extra object (skewed, page 1) is
    # absent
    updaters = [
        memory.make_range_updater(ctx, node, obj, lo, hi, extra=5)
        for obj, lo, hi in ((local, 0, 64), (remote, 16, 32), (wide, 0, 1500))
    ]
    out = []
    for _phase in range(2):
        out.append(memory.get(ctx, node, wide, 0))
        memory.put(ctx, node, skewed, 3, 0.5)
        for update in updaters[:2]:
            update(plus_one, extra_obj=skewed)
        # page 0 of wide resident, then pages 0-1, page 2 still absent
        out.append(memory.get_range(ctx, node, wide, 0, 600).tolist())
        memory.account_accesses(ctx, node, wide, 10, lo=0, hi=1500)
        memory.put(ctx, node, local, 3, 1.5)
        out.append(memory.get(ctx, node, local, 3))
        out.append(memory.get(ctx, node, remote, 5))
        memory.put(ctx, node, remote, 5, 2.5)
        out.append(memory.get(ctx, node, remote, 5))
        out.append(memory.get_range(ctx, node, remote, 0, 64).tolist())
        memory.put_range(ctx, node, remote, 0, 8, np.arange(8.0))
        out.append(memory.get_range(ctx, node, local, 0, 64).tolist())
        memory.put_range(ctx, node, local, 10, 20, np.full(10, 3.0))
        out.append(memory.get_range(ctx, node, wide, 100, 1400).tolist())
        memory.put_range(ctx, node, wide, 500, 600, np.arange(100.0))
        memory.account_accesses(ctx, node, remote, 3, lo=2, hi=3, write=True)
        memory.account_accesses(ctx, node, local, 4)
        memory.update_range(ctx, node, remote, 8, 16, plus_one, extra_obj=wide, extra=7)
        memory.update_range(ctx, node, local, 0, 8, keep, extra_obj=remote, extra=2)
        memory.update_range(ctx, node, wide, 0, 1500, plus_one)
        for update in updaters:
            update(plus_one, extra_obj=remote)
            update(keep, extra_obj=wide)
            update(plus_one)
        out.append(memory.get(ctx, node, skewed, 511))
        memory.put(ctx, node, skewed, 511, 9.0)
        out.append(memory.get(ctx, node, skewed, 511))
        memory.get_run(ctx, node, skewed, [509, 510, 511, 512, 513], extra=2)
        memory.put_run(ctx, node, skewed, [510, 511, 512], [1.0, 2.0, 3.0], extra=1)
        memory.get_run(ctx, node, remote, [0, 1, 2, 60, 61])
        memory.put_run(ctx, node, wide, [0, 1, 1000, 1001], [4.0, 5.0, 6.0, 7.0])
        # release then acquire: remote pages go absent again under java_ic,
        # protected again under java_pf
        memory.update_main_memory(ctx, node)
        memory.invalidate_cache(ctx, node)
    for obj in (local, remote, wide, skewed):
        out.append(obj.main_read_range(0, obj.num_slots).tolist())
    return out


@pytest.mark.parametrize("protocol", ["java_ic", "java_pf", "java_ic_hoisted"])
def test_fast_plan_primitives_match_the_detect_path(rig_factory, protocol):
    """Every fused primitive charges and counts exactly like ``_detect``.

    Each run pairs a rig with its fast plan active against one built the
    same way and then routed through the exact polymorphic path.  The
    charge log of a ``RecordingContext`` exercises the ``charge_cpu``
    fallback; the pending-CPU float of a ``PendingContext`` exercises the
    inline additions, and must be bit-equal.
    """
    results = {}
    for fast in (True, False):
        for context_type in (RecordingContext, PendingContext):
            rig = rig_factory(protocol=protocol)
            if fast:
                assert rig.memory._fast_plan is not None
            else:
                rig.memory.disable_access_fast_path()
            ctx = context_type(0)
            data = _drive_primitives(rig, ctx)
            charges = (
                ctx.charges
                if context_type is RecordingContext
                else (ctx._pending_cpu.hex(), ctx._pending_wait.hex())
            )
            stats = dataclasses.asdict(rig.page_manager.stats)
            results[fast, context_type] = (data, charges, stats)
    for context_type in (RecordingContext, PendingContext):
        fast_data, fast_charges, fast_stats = results[True, context_type]
        ref_data, ref_charges, ref_stats = results[False, context_type]
        assert fast_stats == ref_stats
        assert fast_data == ref_data
        assert fast_charges == ref_charges
    # the scenario must reach every path: fetches, checks, remote accesses
    stats = results[True, PendingContext][2]
    assert stats["page_fetches"] > 0 and stats["remote_accesses"] > 0
    if protocol != "java_pf":
        assert stats["inline_checks"] > 0
