"""DSM-PM2: the page-based distributed-shared-memory platform.

DSM-PM2 (Antoniu & Bougé, HIPS'01) is the layer Hyperion's memory subsystem
is built on.  It provides:

* a global page space over the iso-address range, each page having a *home
  node* that holds its reference copy,
* per-node page tables tracking which pages are replicated locally and, for
  fault-based protocols, their ``mprotect`` protection state,
* the page transfer machinery (request to the home node, reply carrying the
  page, accounting of transferred bytes), and
* a protocol plug-in interface: a consistency protocol customises what
  happens on access detection, on page arrival and at synchronisation points.

The two Java-consistency protocols of the paper (``java_ic`` and ``java_pf``)
live in :mod:`repro.core`; this package provides the mechanisms they share.
"""

from repro.dsm.page import PageInfo, PageProtection
from repro.dsm.page_manager import DsmStats, NodePageTable, PageManager
from repro.dsm.protocol_api import DsmProtocolHooks

__all__ = [
    "PageInfo",
    "PageProtection",
    "PageManager",
    "NodePageTable",
    "DsmStats",
    "DsmProtocolHooks",
]
