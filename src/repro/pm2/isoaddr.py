"""Iso-address memory allocation.

PM2 reserves the same range of virtual addresses on every node and gives each
node its own *arena* (a disjoint slice of that range) to allocate from.  An
object allocated by node ``k`` therefore has an address that is (a) unique
cluster-wide and (b) mapped at the same virtual address on every node, which
is what lets DSM-PM2 replicate pages and migrate threads while keeping raw
pointers valid (paper Section 3.1).

The allocator is a per-arena bump allocator with page-aligned arena bases, a
free list for exact-size reuse, and enough bookkeeping to answer "which node
owns this address?" and "which allocation contains this address?" — the two
queries the DSM page manager needs.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class IsoAllocation:
    """One allocated block: [address, address + size)."""

    address: int
    size: int
    home_node: int

    @property
    def end(self) -> int:
        """One past the last byte of the block."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """True if *address* falls inside the block."""
        return self.address <= address < self.end


class IsoAddressAllocator:
    """Cluster-wide iso-address allocator with per-node arenas."""

    #: Base of the shared iso-address range (value mirrors PM2's choice of a
    #: high, unused region of the address space; the exact number is
    #: irrelevant to the simulation but keeps addresses recognisable).
    DEFAULT_BASE = 0x2000_0000_0000

    def __init__(
        self,
        num_nodes: int,
        arena_size: int = 256 * 1024 * 1024,
        page_size: int = 4096,
        base: int = DEFAULT_BASE,
    ):
        check_positive("num_nodes", num_nodes)
        check_positive("arena_size", arena_size)
        check_positive("page_size", page_size)
        if arena_size % page_size != 0:
            raise ValueError("arena_size must be a multiple of page_size")
        self.num_nodes = int(num_nodes)
        self.arena_size = int(arena_size)
        self.page_size = int(page_size)
        self.base = int(base)
        self._cursor: list[int] = [self._arena_base(n) for n in range(num_nodes)]
        self._free: dict[int, dict[int, list[int]]] = {n: {} for n in range(num_nodes)}
        #: sorted list of allocation start addresses + parallel map, for lookup
        self._starts: list[int] = []
        self._allocations: dict[int, IsoAllocation] = {}
        self.total_allocated = 0
        self.allocation_count = 0

    # ------------------------------------------------------------------
    def _arena_base(self, node: int) -> int:
        return self.base + node * self.arena_size

    def _arena_end(self, node: int) -> int:
        return self._arena_base(node) + self.arena_size

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    def allocate(self, node: int, size: int, align: int = 8) -> IsoAllocation:
        """Allocate *size* bytes in *node*'s arena, aligned to *align* bytes."""
        self._check_node(node)
        check_positive("size", size)
        check_positive("align", align)
        if align & (align - 1):
            raise ValueError(f"align must be a power of two, got {align}")

        # exact-size reuse from the free list first
        bucket = self._free[node].get(size)
        while bucket:
            address = bucket.pop()
            if address % align == 0:
                return self._record(node, address, size)
            # alignment mismatch: discard from the bucket head and retry
            bucket.insert(0, address)
            break

        cursor = self._cursor[node]
        address = (cursor + align - 1) & ~(align - 1)
        if address + size > self._arena_end(node):
            raise MemoryError(
                f"iso-address arena of node {node} exhausted "
                f"({self.arena_size} bytes); increase arena_size"
            )
        self._cursor[node] = address + size
        return self._record(node, address, size)

    def allocate_pages(self, node: int, pages: int) -> IsoAllocation:
        """Allocate *pages* whole pages, page-aligned."""
        check_positive("pages", pages)
        return self.allocate(node, pages * self.page_size, align=self.page_size)

    def free(self, allocation: IsoAllocation) -> None:
        """Return a block to its arena's free list."""
        if self._allocations.get(allocation.address) is not allocation:
            raise KeyError(
                f"address {allocation.address:#x} does not belong to a live "
                "allocation (double free or stale handle)"
            )
        del self._allocations[allocation.address]
        idx = bisect_right(self._starts, allocation.address) - 1
        if idx >= 0 and self._starts[idx] == allocation.address:
            self._starts.pop(idx)
        self._free[allocation.home_node].setdefault(allocation.size, []).append(
            allocation.address
        )
        self.total_allocated -= allocation.size

    def _record(self, node: int, address: int, size: int) -> IsoAllocation:
        allocation = IsoAllocation(address=address, size=size, home_node=node)
        self._allocations[address] = allocation
        insort(self._starts, address)
        self.total_allocated += size
        self.allocation_count += 1
        return allocation

    # ------------------------------------------------------------------
    # queries used by the DSM layer
    # ------------------------------------------------------------------
    def home_node_of(self, address: int) -> int:
        """Node whose arena contains *address* (the page's home node)."""
        offset = address - self.base
        if offset < 0 or offset >= self.num_nodes * self.arena_size:
            raise ValueError(f"address {address:#x} is outside the iso-address range")
        return offset // self.arena_size

    def pages_of_range(self, address: int, size: int) -> range:
        """Global page numbers spanned by [address, address + size)."""
        check_positive("size", size)
        first = address // self.page_size
        last = (address + size - 1) // self.page_size
        return range(first, last + 1)

    def allocation_at(self, address: int) -> IsoAllocation | None:
        """The allocation containing *address*, or None."""
        idx = bisect_right(self._starts, address) - 1
        if idx < 0:
            return None
        candidate = self._allocations.get(self._starts[idx])
        if candidate is not None and candidate.contains(address):
            return candidate
        return None

    def arena_usage(self, node: int) -> float:
        """Fraction of *node*'s arena consumed by the bump pointer."""
        self._check_node(node)
        return (self._cursor[node] - self._arena_base(node)) / self.arena_size
