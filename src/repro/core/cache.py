"""Per-node object caches.

Hyperion associates one cache with each *node* (not with each thread): at
most one copy of an object exists on a node and all threads of that node
share it, which avoids wasting memory (paper Section 3.1).  The cache holds a
node-local copy of each remote object that has been loaded, records
modifications at field granularity (the ``put`` primitive), and hands the
modified slots to ``updateMainMemory`` when a thread exits a monitor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.interfaces import SharedEntity


class CachedObject:
    """A node-local copy of a shared entity plus its dirty-slot records.

    An entry its :class:`ObjectCache` created reports itself to the cache's
    *log* at its first write after a flush, so flushing and invalidating
    visit only the entries written since, not every entry of the node.
    """

    __slots__ = (
        "obj", "data", "is_array", "_dirty_mask", "_dirty_slots", "_modified",
        "_log", "_seq",
    )

    def __init__(self, obj: SharedEntity, log: dict | None = None, seq: int = 0):
        self.obj = obj
        self.data = obj.snapshot()
        #: True when the cached payload is a numpy array (a Java array)
        self.is_array = isinstance(self.data, np.ndarray)
        # arrays get a boolean mask (lazily allocated); scalar objects a set
        self._dirty_mask: np.ndarray | None = None
        self._dirty_slots: set | None = None
        #: written since the last flush; while set, the entry is in *log*
        self._modified = False
        self._log = log
        #: insertion position in the owning cache (the log's key)
        self._seq = seq

    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True if any slot has been modified since the last flush."""
        if not self._modified:
            return False
        if self._dirty_mask is not None and bool(self._dirty_mask.any()):
            return True
        return bool(self._dirty_slots)

    def dirty_slot_count(self) -> int:
        """Number of modified slots."""
        count = 0
        if self._dirty_mask is not None:
            count += int(self._dirty_mask.sum())
        if self._dirty_slots:
            count += len(self._dirty_slots)
        return count

    def dirty_bytes(self) -> int:
        """Number of modified bytes (slot count x slot size)."""
        return self.dirty_slot_count() * self.obj.slot_size

    def _note_modified(self) -> None:
        self._modified = True
        if self._log is not None:
            self._log[self._seq] = self

    # ------------------------------------------------------------------
    # reads / writes against the local copy
    # ------------------------------------------------------------------
    def read(self, index: int):
        """Read slot *index* from the node-local copy."""
        return self.data[index]

    def write(self, index: int, value) -> None:
        """Write slot *index* of the node-local copy, recording it as dirty."""
        self.data[index] = value
        if self.is_array:
            self._ensure_mask()[index] = True
        else:
            self._ensure_slots().add(index)
        if not self._modified:
            self._note_modified()

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Read slots [lo, hi) of the node-local copy (as a copy)."""
        if self.is_array:
            return self.data[lo:hi].copy()
        return np.asarray(self.data[lo:hi])

    def write_range(self, lo: int, hi: int, values: Sequence) -> None:
        """Write slots [lo, hi) of the node-local copy, recording them dirty."""
        self.data[lo:hi] = values
        if self.is_array:
            self._ensure_mask()[lo:hi] = True
        else:
            self._ensure_slots().update(range(lo, hi))
        if not self._modified:
            self._note_modified()

    def write_slots(self, slots: Sequence[int], values: Sequence) -> None:
        """Write ``values[k]`` to slot ``slots[k]`` (distinct slots) at once.

        Array values are converted element by element, as :meth:`write`
        converts one.
        """
        if self.is_array:
            self.data[slots] = np.array(values, dtype=self.data.dtype)
            self._ensure_mask()[slots] = True
        else:
            for slot, value in zip(slots, values):
                self.data[slot] = value
            self._ensure_slots().update(slots)
        if not self._modified:
            self._note_modified()

    # ------------------------------------------------------------------
    # flush support
    # ------------------------------------------------------------------
    def flush_to_main(self) -> int:
        """Write modified slots back to the reference copy; return bytes sent."""
        if not self._modified:
            return 0
        self._modified = False
        nbytes = 0
        mask = self._dirty_mask
        if mask is not None:
            indices = np.flatnonzero(mask)
            count = len(indices)
            if count:
                # contiguous runs are sent as ranges, mirroring Hyperion's
                # field-granularity diffs aggregated per message
                lo, hi = int(indices[0]), int(indices[-1]) + 1
                if hi - lo == count:
                    runs = ((lo, hi),)
                else:
                    bounds = [0, *(np.flatnonzero(np.diff(indices) != 1) + 1).tolist(), count]
                    runs = [
                        (int(indices[a]), int(indices[b - 1]) + 1)
                        for a, b in zip(bounds, bounds[1:])
                    ]
                for lo, hi in runs:
                    self.obj.main_write_range(lo, hi, self.data[lo:hi])
                nbytes += count * self.obj.slot_size
                mask[indices] = False
        if self._dirty_slots:
            for index in sorted(self._dirty_slots):
                self.obj.main_write(index, self.data[index])
            nbytes += len(self._dirty_slots) * self.obj.slot_size
            self._dirty_slots.clear()
        return nbytes

    def refresh(self) -> None:
        """Re-copy the reference data into the local copy (after invalidation)."""
        self.data = self.obj.snapshot()
        if self._dirty_mask is not None:
            self._dirty_mask[:] = False
        if self._dirty_slots:
            self._dirty_slots.clear()

    # ------------------------------------------------------------------
    def _ensure_mask(self) -> np.ndarray:
        if self._dirty_mask is None:
            self._dirty_mask = np.zeros(self.obj.num_slots, dtype=bool)
        return self._dirty_mask

    def _ensure_slots(self) -> set:
        if self._dirty_slots is None:
            self._dirty_slots = set()
        return self._dirty_slots


class ObjectCache:
    """All remote objects currently cached on one node."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._entries: dict[int, CachedObject] = {}
        #: entries written since the last flush, keyed by insertion position
        self._written: dict[int, CachedObject] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: SharedEntity) -> bool:
        return obj.oid in self._entries

    def lookup(self, obj: SharedEntity) -> CachedObject | None:
        """Return the cached copy of *obj*, or None."""
        return self._entries.get(obj.oid)

    def insert(self, obj: SharedEntity) -> CachedObject:
        """Create (or refresh) the cached copy of *obj* from its home data."""
        entry = self._entries.get(obj.oid)
        if entry is None:
            entry = CachedObject(obj, self._written, len(self._entries))
            self._entries[obj.oid] = entry
        else:
            entry.refresh()
        return entry

    def entries(self) -> list[CachedObject]:
        """All cached copies on this node."""
        return list(self._entries.values())

    def _written_in_order(self) -> list[CachedObject]:
        """The entries written since the last flush, in insertion order."""
        written = self._written
        if len(written) == 1:
            return list(written.values())
        return [written[seq] for seq in sorted(written)]

    def dirty_entries(self) -> list[CachedObject]:
        """Cached copies with unflushed modifications."""
        return [e for e in self._written_in_order() if e.dirty]

    # ------------------------------------------------------------------
    def flush_all(self) -> tuple[int, dict[int, int]]:
        """Write every dirty slot back to the home copies.

        Returns the total number of bytes flushed and a per-home-node byte
        count (one update message is sent to each distinct home node).  The
        homes appear in the insertion order of their entries, the order in
        which ``updateMainMemory`` charges the messages.
        """
        total = 0
        per_home: dict[int, int] = {}
        if self._written:
            for entry in self._written_in_order():
                nbytes = entry.flush_to_main()
                if not nbytes:
                    continue
                total += nbytes
                home = entry.obj.home_node
                per_home[home] = per_home.get(home, 0) + nbytes
            self._written.clear()
        return total, per_home

    def invalidate(self) -> int:
        """Drop every cached copy (monitor-entry semantics); return the count.

        Dirty entries must have been flushed beforehand; dropping unflushed
        modifications would violate the Java Memory Model, so this raises if
        any remain.
        """
        if self._written:
            dirty = self.dirty_entries()
            if dirty:
                names = ", ".join(str(e.obj.oid) for e in dirty[:5])
                raise RuntimeError(
                    f"invalidate() with {len(dirty)} unflushed dirty object(s) "
                    f"(oids {names}, ...): updateMainMemory must run first"
                )
            self._written.clear()
        count = len(self._entries)
        self._entries.clear()
        return count
