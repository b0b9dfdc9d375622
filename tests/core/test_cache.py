"""Tests for the per-node object cache and dirty tracking."""

import numpy as np
import pytest

from repro.core.cache import CachedObject, ObjectCache
from repro.hyperion.objects import JavaArray, JavaClass, JavaObject


def make_array(length=16, home=1):
    return JavaArray("double", length, address=0x1000, home_node=home)


def make_object(home=1):
    cls = JavaClass("Pair", ["a", "b"])
    return JavaObject(cls, address=0x2000, home_node=home)


def test_cached_array_reads_and_dirty_writes():
    array = make_array()
    array.main_write_range(0, 16, np.arange(16.0))
    cached = CachedObject(array)
    assert cached.read(3) == 3.0
    cached.write(5, 99.0)
    assert cached.dirty
    assert cached.dirty_slot_count() == 1
    assert cached.dirty_bytes() == 8
    # the reference copy is untouched until flush
    assert array.main_read(5) == 5.0
    flushed = cached.flush_to_main()
    assert flushed == 8
    assert array.main_read(5) == 99.0
    assert not cached.dirty


def test_cached_array_range_writes_flush_as_runs():
    array = make_array(32)
    cached = CachedObject(array)
    cached.write_range(4, 10, np.full(6, 7.0))
    cached.write(20, 1.0)
    assert cached.dirty_slot_count() == 7
    nbytes = cached.flush_to_main()
    assert nbytes == 7 * 8
    assert np.all(array.as_numpy()[4:10] == 7.0)
    assert array.main_read(20) == 1.0


def test_cached_object_field_writes():
    obj = make_object()
    obj.main_write(0, 10)
    cached = CachedObject(obj)
    cached.write(1, 42)
    assert cached.read(0) == 10
    assert cached.dirty_bytes() == 8
    cached.flush_to_main()
    assert obj.main_read(1) == 42


def test_refresh_discards_local_state():
    array = make_array()
    cached = CachedObject(array)
    cached.write(0, 123.0)
    array.main_write(1, 55.0)
    cached.refresh()
    assert not cached.dirty
    assert cached.read(1) == 55.0
    assert cached.read(0) == 0.0  # the unflushed write was discarded


def test_object_cache_lookup_and_insert():
    cache = ObjectCache(node_id=0)
    array = make_array()
    assert cache.lookup(array) is None
    entry = cache.insert(array)
    assert cache.lookup(array) is entry
    assert array in cache and len(cache) == 1
    # inserting a cached object again refreshes the one copy
    array.main_write(1, 7.0)
    assert cache.insert(array) is entry and entry.read(1) == 7.0
    assert len(cache) == 1


def test_flush_all_groups_by_home_node():
    cache = ObjectCache(node_id=0)
    a = JavaArray("double", 4, address=0x100, home_node=1)
    b = JavaArray("double", 4, address=0x200, home_node=2)
    cache.insert(a).write(0, 1.0)
    cache.insert(b).write_range(0, 2, [2.0, 3.0])
    total, per_home = cache.flush_all()
    assert total == 3 * 8
    assert per_home == {1: 8, 2: 16}
    assert cache.dirty_entries() == []


def test_invalidate_requires_clean_cache():
    cache = ObjectCache(node_id=0)
    array = make_array()
    cache.insert(array).write(0, 5.0)
    with pytest.raises(RuntimeError):
        cache.invalidate()
    cache.flush_all()
    dropped = cache.invalidate()
    assert dropped == 1
    assert len(cache) == 0


def test_flush_all_lists_homes_in_insertion_order_not_write_order():
    """``updateMainMemory`` charges one message per home in this order."""
    cache = ObjectCache(node_id=0)
    arrays = [JavaArray("double", 4, address=0x100 * (i + 1), home_node=h) for i, h in enumerate((3, 1, 2))]
    entries = [cache.insert(a) for a in arrays]
    cache.insert(JavaArray("double", 4, address=0x900, home_node=4))  # never written
    for entry in reversed(entries):
        entry.write(0, 1.0)
    total, per_home = cache.flush_all()
    assert total == 3 * 8
    assert list(per_home) == [3, 1, 2]
    # nothing is written since: a second flush sends nothing
    assert cache.flush_all() == (0, {})
    entries[2].write(1, 2.0)
    assert cache.flush_all() == (8, {2: 8})


def test_write_slots_records_each_slot_and_flushes_runs():
    array = make_array(32)
    cached = CachedObject(array)
    cached.write_slots([9, 3, 4, 5, 20], [1.5, 2.0, 3.0, 4.0, 7])
    assert cached.dirty_slot_count() == 5
    assert cached.flush_to_main() == 5 * 8
    assert array.as_numpy()[[3, 4, 5, 9, 20]].tolist() == [2.0, 3.0, 4.0, 1.5, 7.0]
    fields = CachedObject(make_object())
    fields.write_slots([1, 0], [5, 6])
    fields.flush_to_main()
    assert [fields.obj.main_read(i) for i in (0, 1)] == [6, 5]
