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


class PageTableEntry:
    """Mutable per-node state of one page mapping.

    A plain ``__slots__`` class rather than a dataclass: page-table entries
    are the most numerous mutable objects of a simulation (one per node per
    touched page) and sit on the per-access hot path, so the smaller memory
    footprint and faster attribute access matter.

    Attributes
    ----------
    present:
        True when the node holds an up-to-date copy of the page (the home
        node's entry is always present).
    protection:
        Simulated ``mprotect`` state; only meaningful to fault-based
        protocols (``java_ic`` leaves everything READ_WRITE forever).
    fetches:
        Number of times this node has fetched the page from its home.
    faults:
        Number of page faults this node has taken on the page.
    """

    __slots__ = ("present", "protection", "fetches", "faults")

    def __init__(
        self,
        present: bool = False,
        protection: PageProtection = PageProtection.READ_WRITE,
        fetches: int = 0,
        faults: int = 0,
    ):
        self.present = present
        self.protection = protection
        self.fetches = fetches
        self.faults = faults

    def __eq__(self, other) -> bool:
        if not isinstance(other, PageTableEntry):
            return NotImplemented
        return (
            self.present == other.present
            and self.protection == other.protection
            and self.fetches == other.fetches
            and self.faults == other.faults
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageTableEntry(present={self.present}, protection={self.protection}, "
            f"fetches={self.fetches}, faults={self.faults})"
        )
