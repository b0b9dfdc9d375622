"""Tests for the Java object model and the distributed heap allocator."""

import numpy as np
import pytest

from repro.hyperion.objects import HEADER_BYTES, JavaArray, JavaClass, JavaObject
from tests.conftest import make_runtime


def test_java_class_fields():
    cls = JavaClass("Point", ["x", "y"])
    assert cls.num_fields == 2
    assert cls.field_index("y") == 1
    with pytest.raises(KeyError):
        cls.field_index("z")
    with pytest.raises(ValueError):
        JavaClass("Bad", ["a", "a"])
    with pytest.raises(ValueError):
        JavaClass("", [])


def test_java_object_slots_and_size():
    cls = JavaClass("Point", ["x", "y", "z"])
    obj = JavaObject(cls, address=0x100, home_node=1)
    assert obj.num_slots == 3
    assert obj.size_bytes == HEADER_BYTES + 3 * 8
    obj.main_write(0, 1.5)
    assert obj.main_read(0) == 1.5
    obj.main_write_range(1, 3, [2, 3])
    assert list(obj.main_read_range(0, 3)) == [1.5, 2, 3]
    snap = obj.snapshot()
    snap[0] = 99
    assert obj.main_read(0) == 1.5  # snapshot is independent
    with pytest.raises(ValueError):
        obj.main_write_range(0, 2, [1])


def test_java_array_types_and_sizes():
    arr = JavaArray("int", 10, address=0x200, home_node=0)
    assert arr.slot_size == 4
    assert arr.size_bytes == HEADER_BYTES + 40
    assert len(arr) == 10
    arr.main_write(2, 7)
    assert arr.main_read(2) == 7
    arr.main_write_range(0, 3, [1, 2, 3])
    assert np.array_equal(arr.main_read_range(0, 3), [1, 2, 3])
    with pytest.raises(ValueError):
        JavaArray("complex", 4, 0, 0)
    with pytest.raises(ValueError):
        JavaArray("int", -1, 0, 0)
    assert JavaArray.element_size_of("double") == 8


def test_array_as_numpy_is_read_only():
    arr = JavaArray("double", 4, address=0, home_node=0)
    view = arr.as_numpy()
    with pytest.raises(ValueError):
        view[0] = 1.0


def test_unique_oids():
    a = JavaArray("double", 1, 0, 0)
    b = JavaArray("double", 1, 0, 0)
    assert a.oid != b.oid


def test_heap_allocates_in_home_arena():
    runtime = make_runtime(num_nodes=3)
    cls = JavaClass("Rec", ["a"])
    obj = runtime.heap.new_object(cls, home_node=2)
    assert obj.home_node == 2
    assert runtime.isoaddr.home_node_of(obj.address) == 2
    pages = runtime.page_manager.pages_for_range(obj.address, obj.size_bytes)
    assert all(runtime.page_manager.home_node(p) == 2 for p in pages)


def test_heap_page_aligned_arrays():
    runtime = make_runtime(num_nodes=2)
    arr = runtime.heap.new_array("double", 100, home_node=1, page_aligned=True)
    assert arr.address % runtime.cost_model.page_size == 0
    assert runtime.heap.arrays_allocated == 1
    assert runtime.heap.bytes_allocated >= 800


def test_heap_matrix_row_homes():
    runtime = make_runtime(num_nodes=2)
    rows = runtime.heap.new_matrix("int", 4, 8, home_nodes=[0, 0, 1, 1])
    assert [r.home_node for r in rows] == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        runtime.heap.new_matrix("int", 3, 8, home_nodes=[0])


def _allocate_rows(block: bool) -> tuple:
    """Four rows of a matrix (or four arrays) from a main thread's context."""
    runtime = make_runtime(num_nodes=3)
    homes = [0, 2, 1, 1]
    seen = {}

    def main(ctx):
        if block:
            seen["rows"] = ctx.new_matrix("int", 4, 1500, homes)
        else:
            seen["rows"] = [
                ctx.new_array("int", 1500, home_node=home, page_aligned=True)
                for home in homes
            ]
        seen["charged"] = ctx._pending_cpu.hex()

    runtime.spawn_main(main)
    runtime.run()
    return runtime, seen["rows"], seen["charged"]


def test_matrix_rows_are_placed_and_charged_like_single_arrays():
    runtime, rows, charged = _allocate_rows(block=True)
    ref_runtime, ref_rows, ref_charged = _allocate_rows(block=False)
    assert [r.address for r in rows] == [r.address for r in ref_rows]
    assert [r.home_node for r in rows] == [r.home_node for r in ref_rows] == [0, 2, 1, 1]
    # oids are handed out in row order, one per row, like N new_array calls
    oids = [r.oid for r in rows]
    ref_oids = [r.oid for r in ref_rows]
    assert [b - a for a, b in zip(oids, oids[1:])] == [1, 1, 1]
    assert [b - a for a, b in zip(ref_oids, ref_oids[1:])] == [1, 1, 1]
    assert runtime.page_manager._home_by_page == ref_runtime.page_manager._home_by_page
    heap, ref_heap = runtime.heap, ref_runtime.heap
    assert heap.arrays_allocated == ref_heap.arrays_allocated == 4
    assert heap.bytes_allocated == ref_heap.bytes_allocated
    assert charged == ref_charged
    assert [r.size_bytes for r in rows] == [r.size_bytes for r in ref_rows]
    assert all(r.matrix is None for r in ref_rows)


def test_matrix_rows_share_one_array_and_copy_out():
    _runtime, rows, _charged = _allocate_rows(block=True)
    matrix = rows[0].matrix
    assert matrix.shape == (4, 1500) and matrix.dtype == np.int32
    assert all(r.matrix is matrix and r.matrix_row == i for i, r in enumerate(rows))
    rows[1].main_write_range(0, 3, [7, 8, 9])
    rows[2].main_write(5, 4)
    assert matrix[1, :3].tolist() == [7, 8, 9]
    assert matrix[2, 5] == 4 and rows[2].main_read(5) == 4
    matrix[3, 10] = 11
    assert rows[3].main_read(10) == 11
    # snapshots and range reads are copies, not views of the shared array
    snap = rows[1].snapshot()
    snap[0] = -1
    read = rows[1].main_read_range(0, 3)
    read[1] = -1
    assert matrix[1, :3].tolist() == [7, 8, 9]
    assert not rows[1].as_numpy().flags.writeable and matrix.flags.writeable
