"""The paper's primary contribution: Java consistency on DSM-PM2.

This package contains Hyperion's memory subsystem (the Table 2 primitives
``loadIntoCache`` / ``invalidateCache`` / ``updateMainMemory`` / ``get`` /
``put``), the per-node object cache, and the consistency-protocol family.
A protocol is the composition of two orthogonal layers:

* a :mod:`~repro.core.detection` strategy — how accesses to non-resident
  objects are noticed and charged (in-line checks, page faults, hoisted
  checks, the adaptive per-page hybrid), and
* a :mod:`~repro.core.home_policy` — where a page's reference copy lives
  (fixed at allocation, or migrating toward an exclusive writer).

The paper's two protocols are the compositions ``java_ic`` =
inline-check × fixed and ``java_pf`` = page-fault × fixed; the extension
family (``java_ic_hoisted``, ``java_hybrid``, ``java_ic_mig``,
``java_ic_loc``) is registered next to them in the table at the end of
:mod:`repro.core.protocol`.  All comply with the Java Memory Model: node-level
caches, invalidation on monitor entry and a flush of field-granularity
modifications to the objects' home nodes on monitor exit
(:mod:`repro.core.jmm`).
"""

from repro.core.cache import CachedObject, ObjectCache
from repro.core.context import AccessContext, RecordingContext
from repro.core.detection import (
    DetectionStrategy,
    HoistedCheckDetection,
    HybridDetection,
    InlineCheckDetection,
    PageFaultDetection,
)
from repro.core.home_policy import FixedHomePolicy, HomePolicy, MigratoryHomePolicy
from repro.core.jmm import HappensBeforeTracker, VectorClock
from repro.core.memory import MemorySubsystem
from repro.core.protocol import (
    ComposedProtocol,
    ConsistencyProtocol,
    available_protocols,
    create_protocol,
    protocol_composition,
    register_composed,
    register_protocol,
    unregister_protocol,
)
from repro.core.stats import RunStats

__all__ = [
    "AccessContext",
    "RecordingContext",
    "CachedObject",
    "ObjectCache",
    "MemorySubsystem",
    "ConsistencyProtocol",
    "ComposedProtocol",
    "DetectionStrategy",
    "InlineCheckDetection",
    "PageFaultDetection",
    "HoistedCheckDetection",
    "HybridDetection",
    "HomePolicy",
    "FixedHomePolicy",
    "MigratoryHomePolicy",
    "create_protocol",
    "register_protocol",
    "register_composed",
    "protocol_composition",
    "unregister_protocol",
    "available_protocols",
    "RunStats",
    "VectorClock",
    "HappensBeforeTracker",
]
