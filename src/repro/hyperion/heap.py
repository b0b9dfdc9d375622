"""Distributed heap allocation.

Objects are allocated from the iso-address arena of their *home node* and the
pages they span are registered with the DSM page manager.  The home node can
be chosen explicitly (the benchmarks use this to control data distribution,
e.g. Jacobi's row blocks) or defaults to the allocating thread's node, which
is Hyperion's behaviour.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dsm.page_manager import PageManager
from repro.hyperion.objects import HEADER_BYTES, JavaArray, JavaClass, JavaObject
from repro.pm2.isoaddr import IsoAddressAllocator
from repro.util.validation import check_non_negative


class HeapAllocator:
    """Allocates Java objects and arrays in the distributed heap."""

    def __init__(self, isoaddr: IsoAddressAllocator, page_manager: PageManager):
        self.isoaddr = isoaddr
        self.page_manager = page_manager
        self.objects_allocated = 0
        self.arrays_allocated = 0
        self.bytes_allocated = 0

    # ------------------------------------------------------------------
    def new_object(self, jclass: JavaClass, home_node: int) -> JavaObject:
        """Allocate an instance of *jclass* homed on *home_node*."""
        check_non_negative("home_node", home_node)
        size = HEADER_BYTES + jclass.num_fields * JavaObject.slot_size
        allocation = self.isoaddr.allocate(home_node, max(size, 1), align=8)
        obj = JavaObject(jclass, allocation.address, home_node)
        self.page_manager.register_range(allocation.address, max(size, 1))
        self.objects_allocated += 1
        self.bytes_allocated += size
        return obj

    def new_array(
        self,
        element_type: str,
        length: int,
        home_node: int,
        page_aligned: bool = False,
    ) -> JavaArray:
        """Allocate an array of *length* elements homed on *home_node*.

        ``page_aligned`` allocates the array on a page boundary; the
        benchmarks use it for large arrays (e.g. Jacobi rows) so that each
        array's pages are not shared with unrelated objects — the layout the
        paper's data distribution discussion assumes.
        """
        return self._place_array(element_type, length, home_node, page_aligned)

    def new_matrix(
        self,
        element_type: str,
        rows: int,
        cols: int,
        home_nodes: Sequence[int],
        page_aligned: bool = True,
    ) -> list:
        """Allocate a matrix as a list of row arrays with per-row homes.

        ``home_nodes`` gives the home node of each row (len == rows); this is
        how the row-block decompositions of Jacobi and ASP are expressed.
        Row ``r`` is placed exactly as the ``r``-th of *rows* ``new_array``
        calls would place it (address, oid, pages, counters); its reference
        copy is row ``r`` of one shared 2-D array (``JavaArray.matrix``).
        """
        if len(home_nodes) != rows:
            raise ValueError(
                f"home_nodes has {len(home_nodes)} entries for {rows} rows"
            )
        matrix = np.zeros((rows, cols), dtype=JavaArray.dtype_of(element_type))
        return [
            self._place_array(element_type, cols, home_nodes[r], page_aligned, matrix, r)
            for r in range(rows)
        ]

    def _place_array(
        self,
        element_type: str,
        length: int,
        home_node: int,
        page_aligned: bool,
        matrix: np.ndarray | None = None,
        matrix_row: int = 0,
    ) -> JavaArray:
        check_non_negative("home_node", home_node)
        elem_size = JavaArray.element_size_of(element_type)
        size = HEADER_BYTES + length * elem_size
        align = self.isoaddr.page_size if page_aligned else 8
        allocation = self.isoaddr.allocate(home_node, max(size, 1), align=align)
        array = JavaArray(
            element_type, length, allocation.address, home_node, matrix, matrix_row
        )
        self.page_manager.register_range(allocation.address, max(size, 1))
        self.arrays_allocated += 1
        self.bytes_allocated += size
        return array
