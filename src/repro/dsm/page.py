"""Pages, page protection states and per-page metadata."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PageProtection(enum.Enum):
    """Simulated ``mprotect`` state of a page mapping on one node.

    The paper's protocols only use two states: fully protected (``PROT_NONE``,
    any access faults) and fully accessible (``PROT_READ | PROT_WRITE``).
    ``READ_ONLY`` is provided for completeness because DSM-PM2 supports
    protocols (e.g. sequential consistency) that distinguish read and write
    faults.
    """

    NONE = "none"
    READ_ONLY = "read_only"
    READ_WRITE = "read_write"

    def allows_read(self) -> bool:
        """True if a load from the page does not fault."""
        return self is not PageProtection.NONE

    def allows_write(self) -> bool:
        """True if a store to the page does not fault."""
        return self is PageProtection.READ_WRITE


@dataclass(frozen=True, slots=True)
class PageInfo:
    """Immutable identity of one global page."""

    page_number: int
    home_node: int
    page_size: int

    @property
    def base_address(self) -> int:
        """First byte address covered by the page."""
        return self.page_number * self.page_size

    @property
    def end_address(self) -> int:
        """One past the last byte covered by the page."""
        return self.base_address + self.page_size

    def contains(self, address: int) -> bool:
        """True if *address* falls within this page."""
        return self.base_address <= address < self.end_address

