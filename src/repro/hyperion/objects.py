"""The Java object model as seen by the Hyperion runtime.

Compiled Java code manipulates objects through real pointers; Hyperion places
every object at an iso-address so the pointer is valid on every node, and the
DSM layer replicates the *pages* the object lives on.  The classes here hold
the reference ("main memory") copy of each object's data — the copy owned by
the object's home node — and expose the slot-level interface the memory
subsystem requires (:class:`repro.core.interfaces.SharedEntity`).

Scalar objects store their fields as a Python list (one slot per field);
arrays store a NumPy array (one slot per element), which keeps the bulk
operations the benchmarks rely on fast.  The rows of a matrix allocation are
views of one 2-D array, so block primitives can move many rows at once.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

#: bytes of object header (vtable pointer + monitor word), as in Hyperion
HEADER_BYTES = 16

#: numpy dtypes for the supported Java element types
_ELEMENT_DTYPES: dict[str, np.dtype] = {
    "double": np.dtype(np.float64),
    "float": np.dtype(np.float32),
    "long": np.dtype(np.int64),
    "int": np.dtype(np.int32),
    "boolean": np.dtype(np.uint8),
    "byte": np.dtype(np.int8),
    "ref": np.dtype(np.int64),  # references are 64-bit iso-addresses
}

_oid_counter = itertools.count(1)


def _next_oid() -> int:
    return next(_oid_counter)


class JavaClass:
    """A Java class descriptor: ordered instance fields.

    Only the information the runtime needs is kept: the class name and the
    ordered list of instance field names (all fields occupy one 8-byte slot,
    which is how Hyperion lays objects out for simplicity of the DSM diffs).
    """

    __slots__ = ("name", "field_names", "_index")

    def __init__(self, name: str, field_names: Sequence[str]):
        if not name:
            raise ValueError("class name must be non-empty")
        names = tuple(field_names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in class {name!r}")
        self.name = name
        self.field_names = names
        self._index = {field: i for i, field in enumerate(names)}

    @property
    def num_fields(self) -> int:
        """Number of instance fields."""
        return len(self.field_names)

    def field_index(self, field: str) -> int:
        """Slot index of *field* (raises KeyError for unknown fields)."""
        try:
            return self._index[field]
        except KeyError:
            raise KeyError(
                f"class {self.name!r} has no field {field!r}; "
                f"fields are {list(self.field_names)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JavaClass({self.name!r}, fields={list(self.field_names)})"


class JavaObject:
    """An instance of a :class:`JavaClass` living in the distributed heap.

    ``num_slots`` and ``size_bytes`` are fixed at allocation time and read on
    every simulated access, so they are plain instance attributes rather than
    properties.
    """

    __slots__ = ("oid", "jclass", "address", "home_node", "num_slots", "size_bytes", "_data")

    #: every field occupies one 8-byte slot
    slot_size = 8

    def __init__(self, jclass: JavaClass, address: int, home_node: int):
        self.oid = _next_oid()
        self.jclass = jclass
        self.address = address
        self.home_node = home_node
        #: number of field slots
        self.num_slots = jclass.num_fields
        #: header plus field payload
        self.size_bytes = HEADER_BYTES + self.num_slots * self.slot_size
        self._data: list = [0] * jclass.num_fields

    def main_read(self, index: int):
        """Read field slot *index* from the reference copy."""
        return self._data[index]

    def main_write(self, index: int, value) -> None:
        """Write field slot *index* of the reference copy."""
        self._data[index] = value

    def main_read_range(self, lo: int, hi: int) -> np.ndarray:
        """Read field slots [lo, hi) as an object array."""
        return np.asarray(self._data[lo:hi], dtype=object)

    def main_write_range(self, lo: int, hi: int, values: Sequence) -> None:
        """Write field slots [lo, hi)."""
        values = list(values)
        if len(values) != hi - lo:
            raise ValueError("value count does not match the slot range")
        self._data[lo:hi] = values

    def main_write_slots(self, slots: Sequence[int], values: Sequence) -> None:
        """Write ``values[k]`` to field slot ``slots[k]`` (distinct slots)."""
        data = self._data
        for slot, value in zip(slots, values):
            data[slot] = value

    def snapshot(self) -> list:
        """Deep copy of the field payload for node-local caching."""
        return list(self._data)

    # -- convenience -------------------------------------------------------------
    def field_index(self, field: str) -> int:
        """Slot index of the named field."""
        return self.jclass.field_index(field)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JavaObject {self.jclass.name} oid={self.oid} "
            f"addr={self.address:#x} home={self.home_node}>"
        )


class JavaArray:
    """A Java array living in the distributed heap (NumPy-backed).

    ``slot_size``, ``num_slots`` and ``size_bytes`` are fixed at allocation
    time and read on every simulated access, so they are plain instance
    attributes rather than properties.
    """

    __slots__ = (
        "oid",
        "element_type",
        "length",
        "address",
        "home_node",
        "slot_size",
        "num_slots",
        "size_bytes",
        "matrix",
        "matrix_row",
        "_data",
    )

    def __init__(
        self,
        element_type: str,
        length: int,
        address: int,
        home_node: int,
        matrix: np.ndarray | None = None,
        matrix_row: int = 0,
    ):
        if element_type not in _ELEMENT_DTYPES:
            raise ValueError(
                f"unsupported element type {element_type!r}; "
                f"supported: {sorted(_ELEMENT_DTYPES)}"
            )
        if length < 0:
            raise ValueError(f"array length must be >= 0, got {length}")
        self.oid = _next_oid()
        self.element_type = element_type
        self.length = int(length)
        self.address = address
        self.home_node = home_node
        #: the 2-D array whose row ``matrix_row`` is this array's reference
        #: copy (rows of one :meth:`HeapAllocator.new_matrix`), or None
        self.matrix = matrix
        self.matrix_row = matrix_row
        if matrix is None:
            self._data = np.zeros(self.length, dtype=_ELEMENT_DTYPES[element_type])
        else:
            self._data = matrix[matrix_row]
        #: size of one element in bytes
        self.slot_size = int(self._data.dtype.itemsize)
        #: number of elements
        self.num_slots = self.length
        #: header plus element payload
        self.size_bytes = HEADER_BYTES + self.length * self.slot_size

    def main_read(self, index: int):
        """Read element *index* from the reference copy (as a Python scalar)."""
        return self._data[index].item()

    def main_write(self, index: int, value) -> None:
        """Write element *index* of the reference copy."""
        self._data[index] = value

    def main_read_range(self, lo: int, hi: int) -> np.ndarray:
        """Copy of elements [lo, hi) from the reference copy."""
        return self._data[lo:hi].copy()

    def main_write_range(self, lo: int, hi: int, values: Sequence) -> None:
        """Write elements [lo, hi) of the reference copy."""
        self._data[lo:hi] = values

    def main_write_slots(self, slots: Sequence[int], values: Sequence) -> None:
        """Write ``values[k]`` to element ``slots[k]`` (distinct slots).

        The values are converted element by element, as :meth:`main_write`
        converts one.
        """
        self._data[slots] = np.array(values, dtype=self._data.dtype)

    def snapshot(self) -> np.ndarray:
        """Deep copy of the element payload for node-local caching."""
        return self._data.copy()

    # -- convenience -------------------------------------------------------------
    def as_numpy(self) -> np.ndarray:
        """Read-only view of the reference copy (for result verification)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    @staticmethod
    def dtype_of(element_type: str) -> np.dtype:
        """NumPy dtype of *element_type* elements."""
        try:
            return _ELEMENT_DTYPES[element_type]
        except KeyError:
            raise ValueError(f"unsupported element type {element_type!r}") from None

    @staticmethod
    def element_size_of(element_type: str) -> int:
        """Element size in bytes for *element_type*."""
        return int(JavaArray.dtype_of(element_type).itemsize)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JavaArray {self.element_type}[{self.length}] oid={self.oid} "
            f"addr={self.address:#x} home={self.home_node}>"
        )
