"""Java monitors (synchronized blocks, wait/notify) over the cluster.

Every Java object owns a monitor.  The monitor's state conceptually lives on
the object's home node, so entering a monitor of a remote object costs a
round trip to that node (plus queueing if the monitor is held), whereas
entering a locally homed monitor only costs the local fast path.  The
*memory* side effects of monitor operations — invalidating the node cache on
entry and flushing modifications on exit — are performed by the thread
context (:class:`repro.hyperion.threads.JavaThreadContext`), not here; this
module only provides mutual exclusion, queueing and wait/notify.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.cluster.costs import CostModel
from repro.cluster.topology import Topology
from repro.core.stats import MonitorStats
from repro.simulation.engine import Engine
from repro.simulation.events import SimEvent
from repro.simulation.resources import Lock


class Monitor:
    """The monitor of one Java object: a FIFO lock plus a wait set."""

    __slots__ = ("oid", "home_node", "lock", "wait_set")

    def __init__(self, engine: Engine, oid: int, home_node: int):
        self.oid = oid
        self.home_node = home_node
        self.lock = Lock(engine, name=f"monitor:{oid}")
        self.wait_set: list[SimEvent] = []

    @property
    def locked(self) -> bool:
        """True while some thread owns the monitor."""
        return self.lock.locked


class MonitorManager:
    """Creates monitors lazily and implements enter/exit/wait/notify."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        cost_model: CostModel,
        stats: MonitorStats | None = None,
    ):
        self.engine = engine
        self.topology = topology
        self.cost_model = cost_model
        # the enter/exit costs, priced once (the cost model is frozen)
        self._local_seconds = cost_model.monitor_local_seconds()
        self._remote_seconds = cost_model.monitor_remote_seconds()
        self.stats = stats if stats is not None else MonitorStats()
        #: optional telemetry hook (duck-typed: ``observe_acquire(latency,
        #: contended)``, see :class:`repro.obs.ledger.MonitorInstrument`);
        #: strictly out-of-band — it only reads the clock around the acquire.
        self.telemetry = None
        self._monitors: dict[int, Monitor] = {}

    # ------------------------------------------------------------------
    def monitor_for(self, obj) -> Monitor:
        """The (lazily created) monitor of *obj*."""
        monitor = self._monitors.get(obj.oid)
        if monitor is None:
            monitor = Monitor(self.engine, obj.oid, obj.home_node)
            self._monitors[obj.oid] = monitor
        return monitor

    def _charge_entry_cost(self, ctx, monitor: Monitor) -> None:
        if monitor.home_node == ctx.node_id:
            ctx.charge_cpu(self._local_seconds)
        else:
            self.stats.remote_enters += 1
            ctx.charge_wait(self._remote_seconds)

    def _charge_exit_cost(self, ctx, monitor: Monitor) -> None:
        if monitor.home_node == ctx.node_id:
            ctx.charge_cpu(self._local_seconds)
        else:
            ctx.charge_wait(self._remote_seconds)

    # ------------------------------------------------------------------
    # operations (all used through ``yield from`` except notify)
    # ------------------------------------------------------------------
    def enter(self, ctx, obj) -> Generator:
        """Acquire *obj*'s monitor for the thread behind *ctx*."""
        monitor = self.monitor_for(obj)
        self.stats.enters += 1
        contended = monitor.locked
        if contended:
            self.stats.contended_enters += 1
        self._charge_entry_cost(ctx, monitor)
        telemetry = self.telemetry
        if telemetry is None:
            yield monitor.lock.acquire(owner=ctx)
        else:
            started = self.engine.now
            yield monitor.lock.acquire(owner=ctx)
            telemetry.observe_acquire(self.engine.now - started, contended)

    def exit(self, ctx, obj) -> None:
        """Release *obj*'s monitor (the caller must own it)."""
        monitor = self.monitor_for(obj)
        if not monitor.locked:
            raise RuntimeError(
                f"monitor exit on object {obj.oid} which is not locked"
            )
        self._charge_exit_cost(ctx, monitor)
        monitor.lock.release()

    def wait(self, ctx, obj) -> Generator:
        """``Object.wait()``: release the monitor, sleep, re-acquire on notify."""
        monitor = self.monitor_for(obj)
        if not monitor.locked:
            raise RuntimeError(f"wait() on object {obj.oid} without holding its monitor")
        self.stats.waits += 1
        wake = SimEvent(self.engine, name=f"wait:{obj.oid}")
        monitor.wait_set.append(wake)
        self._charge_exit_cost(ctx, monitor)
        monitor.lock.release()
        yield wake
        self.stats.enters += 1
        contended = monitor.locked
        if contended:
            self.stats.contended_enters += 1
        self._charge_entry_cost(ctx, monitor)
        telemetry = self.telemetry
        if telemetry is None:
            yield monitor.lock.acquire(owner=ctx)
        else:
            started = self.engine.now
            yield monitor.lock.acquire(owner=ctx)
            telemetry.observe_acquire(self.engine.now - started, contended)

    def notify(self, ctx, obj) -> int:
        """``Object.notify()``: wake one waiter; returns the number woken."""
        monitor = self.monitor_for(obj)
        self.stats.notifies += 1
        if not monitor.wait_set:
            return 0
        monitor.wait_set.pop(0).succeed(None)
        return 1

    def notify_all(self, ctx, obj) -> int:
        """``Object.notifyAll()``: wake every waiter; returns the number woken."""
        monitor = self.monitor_for(obj)
        self.stats.notifies += 1
        woken = len(monitor.wait_set)
        waiters, monitor.wait_set = monitor.wait_set, []
        for waiter in waiters:
            waiter.succeed(None)
        return woken
