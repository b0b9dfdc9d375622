"""Software-level cost constants and the combined :class:`CostModel`.

These constants are what the two protocols trade against each other:

* ``java_ic`` pays ``inline_check_cycles`` on **every** object access but
  never touches page protections;
* ``java_pf`` pays nothing per access but pays ``page_fault_seconds`` +
  ``mprotect_seconds`` (+ the page request itself) whenever a protected page
  is first touched, and ``mprotect_seconds`` per cached page on each monitor
  entry when protections are re-established.

The page-fault costs for the two paper platforms are published in the paper
itself (22 microseconds on the Myrinet-cluster machines, 12 microseconds on the
SCI-cluster machines); the remaining constants are era-appropriate estimates
documented in ``EXPERIMENTS.md`` and swept by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.network import NetworkSpec
from repro.cluster.node import MachineSpec
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class SoftwareCosts:
    """Per-node software cost constants (runtime + OS).

    Attributes
    ----------
    inline_check_cycles:
        Cost of one explicit object-locality check in ``java_ic`` (address
        masking, presence-table lookup, compare and branch).
    access_base_cycles:
        Cost of the ``get``/``put`` primitive itself, excluding detection;
        paid by **both** protocols for every access routed through the DSM.
    page_fault_seconds:
        Kernel trap + SIGSEGV dispatch + handler entry for ``java_pf``.
    mprotect_seconds:
        One ``mprotect`` system call (used by ``java_pf`` to protect a page on
        monitor entry and to unprotect it after a fetch).
    rpc_service_seconds:
        Software time to service one DSM request (page request, diff apply,
        monitor operation) at the receiving node.
    monitor_local_cycles:
        Uncontended monitor enter or exit on an object homed locally.
    monitor_remote_overhead_seconds:
        Extra software cost of a monitor operation on a remote object, on top
        of the network round trip.
    thread_create_seconds:
        Cost of creating one (local or remote) Marcel thread.
    cache_lookup_cycles:
        Cost of looking up the per-node object cache on a miss path.
    diff_per_byte_seconds:
        Cost of recording/applying one modified byte during
        ``updateMainMemory`` (twin/diff machinery).
    """

    inline_check_cycles: float = 8.0
    access_base_cycles: float = 1.0
    page_fault_seconds: float = 20e-6
    mprotect_seconds: float = 5e-6
    rpc_service_seconds: float = 4e-6
    monitor_local_cycles: float = 60.0
    monitor_remote_overhead_seconds: float = 3e-6
    thread_create_seconds: float = 30e-6
    cache_lookup_cycles: float = 30.0
    diff_per_byte_seconds: float = 2e-9

    def __post_init__(self) -> None:
        check_non_negative("inline_check_cycles", self.inline_check_cycles)
        check_non_negative("access_base_cycles", self.access_base_cycles)
        check_non_negative("page_fault_seconds", self.page_fault_seconds)
        check_non_negative("mprotect_seconds", self.mprotect_seconds)
        check_non_negative("rpc_service_seconds", self.rpc_service_seconds)
        check_non_negative("monitor_local_cycles", self.monitor_local_cycles)
        check_non_negative(
            "monitor_remote_overhead_seconds", self.monitor_remote_overhead_seconds
        )
        check_non_negative("thread_create_seconds", self.thread_create_seconds)
        check_non_negative("cache_lookup_cycles", self.cache_lookup_cycles)
        check_non_negative("diff_per_byte_seconds", self.diff_per_byte_seconds)

    def with_overrides(self, **kwargs) -> "SoftwareCosts":
        """Return a copy with some constants replaced (used by ablations)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class CostModel:
    """Everything needed to convert counted events into virtual seconds."""

    machine: MachineSpec
    network: NetworkSpec
    software: SoftwareCosts
    page_size: int = 4096

    def __post_init__(self) -> None:
        check_positive("page_size", self.page_size)

    # ------------------------------------------------------------------
    # per-access detection costs
    # ------------------------------------------------------------------
    def inline_check_seconds(self, count: int = 1) -> float:
        """Time for *count* explicit locality checks (``java_ic``)."""
        check_non_negative("count", count)
        return self.machine.seconds_for_cycles(self.software.inline_check_cycles * count)

    def access_base_seconds(self, count: int = 1) -> float:
        """Time for the access primitive itself, paid by both protocols."""
        check_non_negative("count", count)
        return self.machine.seconds_for_cycles(self.software.access_base_cycles * count)

    def mprotect_seconds(self, pages: int = 1) -> float:
        """Cost of ``mprotect``-ing *pages* pages (one call per page)."""
        check_non_negative("pages", pages)
        return self.software.mprotect_seconds * pages

    def cache_miss_overhead_seconds(self) -> float:
        """Software overhead of taking the miss path in the object cache."""
        return self.machine.seconds_for_cycles(self.software.cache_lookup_cycles)

    # ------------------------------------------------------------------
    # communication costs
    # ------------------------------------------------------------------
    def page_request_seconds(self, pages: int = 1) -> float:
        """Round trip to the home node for *pages* consecutive pages.

        Request is a small control message; the reply carries the page data.
        Service time at the home node is included.
        """
        check_positive("pages", pages)
        payload = pages * self.page_size
        return (
            self.network.round_trip_time(64, payload)
            + self.software.rpc_service_seconds
        )

    def update_message_seconds(self, nbytes: int) -> float:
        """Cost (at the sender) of flushing *nbytes* of modifications home.

        Hyperion waits for the acknowledgement so that a subsequent monitor
        acquisition observes the update (Java consistency), hence a round
        trip; the diff-recording cost is proportional to the modified bytes.
        """
        check_non_negative("nbytes", nbytes)
        return (
            self.network.round_trip_time(nbytes + 64, 32)
            + self.software.rpc_service_seconds
            + self.software.diff_per_byte_seconds * nbytes
        )

    def rpc_round_trip_seconds(self, request_bytes: int = 64, reply_bytes: int = 64) -> float:
        """Generic control RPC round trip (monitor ops, barrier messages)."""
        return (
            self.network.round_trip_time(request_bytes, reply_bytes)
            + self.software.rpc_service_seconds
        )

    # ------------------------------------------------------------------
    # monitors / threads
    # ------------------------------------------------------------------
    def monitor_local_seconds(self) -> float:
        """Uncontended monitor enter/exit on a locally homed object."""
        return self.machine.seconds_for_cycles(self.software.monitor_local_cycles)

    def monitor_remote_seconds(self) -> float:
        """Monitor enter/exit on a remote object: RPC + software overhead."""
        return (
            self.rpc_round_trip_seconds()
            + self.software.monitor_remote_overhead_seconds
        )

    def thread_create_seconds(self, remote: bool) -> float:
        """Thread creation; remote creation adds an RPC to the target node."""
        base = self.software.thread_create_seconds
        if remote:
            base += self.rpc_round_trip_seconds(256, 32)
        return base

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable summary used by the harness reports."""
        mc, sw, net = self.machine, self.software, self.network
        lines = [
            f"machine           : {mc.name} ({mc.frequency_hz / 1e6:.0f} MHz)",
            f"network           : {net.name} "
            f"(latency {net.latency_seconds * 1e6:.1f} us, "
            f"bandwidth {net.bandwidth_bytes_per_second / 1e6:.0f} MB/s)",
            f"page size         : {self.page_size} B",
            f"in-line check     : {sw.inline_check_cycles:.0f} cycles "
            f"({self.inline_check_seconds() * 1e9:.0f} ns)",
            f"page fault        : {sw.page_fault_seconds * 1e6:.0f} us",
            f"mprotect          : {sw.mprotect_seconds * 1e6:.0f} us",
            f"page request RTT  : {self.page_request_seconds() * 1e6:.1f} us",
        ]
        return "\n".join(lines)
