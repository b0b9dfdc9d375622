"""Structural interface the memory subsystem expects from shared entities.

The Java object model itself lives in :mod:`repro.hyperion.objects` (it is
part of the Hyperion runtime, exactly as in the paper's Table 1), but the
memory subsystem and the protocols only rely on the small structural
interface below, so :mod:`repro.core` never imports :mod:`repro.hyperion`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class SharedEntity(Protocol):
    """Anything that lives in the distributed heap and is accessed via get/put.

    Implemented by :class:`repro.hyperion.objects.JavaObject` and
    :class:`repro.hyperion.objects.JavaArray`.
    """

    #: unique object identifier
    oid: int
    #: iso-address of the first byte of the entity
    address: int
    #: total size in bytes (header + payload)
    size_bytes: int
    #: node holding the reference copy
    home_node: int
    #: number of addressable slots (fields or array elements)
    num_slots: int
    #: size in bytes of one slot
    slot_size: int

    def main_read(self, index: int) -> Any:
        """Read slot *index* from the reference (home-node) copy."""

    def main_write(self, index: int, value: Any) -> None:
        """Write slot *index* of the reference copy."""

    def main_read_range(self, lo: int, hi: int) -> np.ndarray:
        """Read slots [lo, hi) of the reference copy as an array."""

    def main_write_range(self, lo: int, hi: int, values: Sequence) -> None:
        """Write slots [lo, hi) of the reference copy."""

    def main_write_slots(self, slots: Sequence[int], values: Sequence) -> None:
        """Write ``values[k]`` to slot ``slots[k]`` of the reference copy."""

    def snapshot(self) -> Any:
        """Return a deep copy of the payload suitable for node-local caching."""
